package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"rossf/internal/shm"
)

// host is the fingerprint recorded with every result.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DevShm     bool   `json:"dev_shm"`
	ShmDir     string `json:"shm_dir"`
	ShmFree    uint64 `json:"shm_free_bytes"`
}

func fingerprint() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		ShmDir:     shm.Dir(),
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	var st syscall.Statfs_t
	if syscall.Statfs("/dev/shm", &st) == nil {
		h.DevShm = true
		h.ShmFree = st.Bavail * uint64(st.Bsize)
	}
	return h
}

// shmSkipReason reports why a shared-memory workload cannot run here,
// or "" when it can.
func (h host) shmSkipReason(need int) string {
	switch {
	case !shm.Available():
		return "shared-memory transport unavailable on this platform"
	case !h.DevShm:
		return "/dev/shm is absent"
	case h.ShmFree < uint64(need):
		return "/dev/shm has too little free space"
	}
	return ""
}

// cpuTicks reads the kernel's all-CPU time counters: ticks stolen by the
// hypervisor, and all ticks. ok is false where /proc/stat is absent.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for _, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total, steal = total+n, n
	}
	return steal, total, true
}
