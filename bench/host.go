// Host and noise record: what machine a result came from and whether it
// held still while the workload ran.
package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo is recorded in every output. A field the host does not reveal is
// "unknown", not empty.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease", ""),
		CPUModel:   firstLine("/proc/cpuinfo", "model name"),
		GitCommit:  gitCommit(),
	}
}

// firstLine returns the first line of a file, or with a key the value of
// the first "key : value" line.
func firstLine(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if key == "" {
			return strings.TrimSpace(line)
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit asks git for HEAD of the checkout the battery runs from — the
// working directory, or its parent when that is bench/ itself. A checkout
// that is not a repository (the benchmark driver's) has no commit, and git is
// not left to look for one in the directories above it.
func gitCommit() string {
	root := "."
	if _, err := os.Stat("bench"); err != nil {
		root = ".."
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// spinSink keeps the reference loop's result alive.
var spinSink uint64

// spinNs times a fixed arithmetic loop — the same instructions on every
// host and commit, so a change in it is the machine, not the program. The
// best of three short runs discards a preemption.
func spinNs() float64 {
	best := 0.0
	for r := 0; r < 3; r++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := float64(time.Since(start).Nanoseconds())
		spinSink += x
		if r == 0 || d < best {
			best = d
		}
	}
	return best
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() measurement {
	v := firstLine("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return missing("VmHWM not readable from /proc/self/status")
	}
	return num(kb / 1024)
}
