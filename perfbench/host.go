package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// parseVmHWM returns the VmHWM line of a /proc/<pid>/status stream (the
// process's peak resident set) in kB.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			if len(f) >= 3 && f[2] != "kB" {
				return 0, fmt.Errorf("VmHWM: unexpected unit %q", f[2])
			}
			return kb, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMB reads this process's VmHWM in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kb, err := parseVmHWM(f)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: total is the sum of
// the user, nice, system, idle, iowait, irq, softirq and steal columns
// (guest time is already counted in user); steal is time the hypervisor
// gave this VM's CPUs to someone else.
type cpuTicks struct {
	total, steal uint64
}

// parseProcStat reads the aggregate cpu line of a /proc/stat stream.
func parseProcStat(r io.Reader) (cpuTicks, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTicks{}, fmt.Errorf("/proc/stat cpu line has %d columns, want at least 8", len(f)-1)
		}
		var t cpuTicks
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("/proc/stat column %d: %w", i, err)
			}
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTicks{}, err
	}
	return cpuTicks{}, fmt.Errorf("no aggregate cpu line in /proc/stat")
}

func readCPUTicks() (cpuTicks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	defer f.Close()
	return parseProcStat(f)
}

// stealFrac is the share of CPU time stolen between two samples.
func stealFrac(a, b cpuTicks) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// refGflops times a fixed naive 64×64×64 matrix product owned by the
// benchmark (not the repository's kernels) for about d and returns the
// median rate over its batches: a drift gauge for the host itself.
func refGflops(d time.Duration) float64 {
	const n = 64
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%13) / 13
		b[i] = float64(i%7) / 7
	}
	mul := func() {
		for j := 0; j < n; j++ {
			cj := c[j*n : j*n+n]
			for k := 0; k < n; k++ {
				bkj := b[k+j*n]
				ak := a[k*n : k*n+n]
				for i := range cj {
					cj[i] += ak[i] * bkj
				}
			}
		}
	}
	const batch = 20
	var rates []float64
	end := time.Now().Add(d)
	for time.Now().Before(end) || len(rates) < 3 {
		t0 := time.Now()
		for r := 0; r < batch; r++ {
			mul()
		}
		rates = append(rates, batch*2*n*n*n/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}

// hostStamp identifies the machine and build a result came from.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
}

func readHostStamp(commit string) hostStamp {
	return hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		CPUModel:   cpuModel(),
		L2Bytes:    cacheBytes(2),
		L3Bytes:    cacheBytes(3),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheBytes reads the size of cpu0's unified cache at the given level from
// sysfs (0 when unavailable).
func cacheBytes(level int) int64 {
	for idx := 0; idx < 8; idx++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", idx)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			return 0
		}
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		if typ, err := os.ReadFile(dir + "type"); err == nil && strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, err := os.ReadFile(dir + "size")
		if err != nil {
			return 0
		}
		return parseCacheSize(strings.TrimSpace(string(sz)))
	}
	return 0
}

// parseCacheSize parses sysfs cache sizes such as "4096K" or "32M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}
