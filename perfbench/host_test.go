package main

import (
	"strings"
	"testing"
)

const statusSample = `Name:	perfbench
State:	R (running)
VmPeak:	 1334912 kB
VmSize:	 1334912 kB
VmHWM:	  130012 kB
VmRSS:	  121344 kB
Threads:	9
`

func TestParseVmHWM(t *testing.T) {
	kb, err := parseVmHWM(strings.NewReader(statusSample))
	if err != nil || kb != 130012 {
		t.Fatalf("parseVmHWM = %d, %v; want 130012", kb, err)
	}
	if _, err := parseVmHWM(strings.NewReader("Name:\tx\nVmRSS:\t1 kB\n")); err == nil {
		t.Fatal("missing VmHWM line: want an error")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\t12 MB\n")); err == nil {
		t.Fatal("unexpected unit: want an error")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\tlots kB\n")); err == nil {
		t.Fatal("non-numeric value: want an error")
	}
}

const statSample = `cpu  1000 20 300 5000 40 5 6 70 9 0
cpu0 500 10 150 2500 20 2 3 35 4 0
cpu1 500 10 150 2500 20 3 3 35 5 0
intr 12345
ctxt 6789
`

func TestParseProcStat(t *testing.T) {
	got, err := parseProcStat(strings.NewReader(statSample))
	if err != nil {
		t.Fatal(err)
	}
	// user+nice+system+idle+iowait+irq+softirq+steal; guest columns are
	// already inside user.
	if want := (cpuTicks{total: 1000 + 20 + 300 + 5000 + 40 + 5 + 6 + 70, steal: 70}); got != want {
		t.Fatalf("parseProcStat = %+v, want %+v", got, want)
	}
	if _, err := parseProcStat(strings.NewReader("cpu0 1 2 3 4 5 6 7 8\n")); err == nil {
		t.Fatal("no aggregate line: want an error")
	}
	if _, err := parseProcStat(strings.NewReader("cpu 1 2 3 4\n")); err == nil {
		t.Fatal("short cpu line: want an error")
	}
}

func TestStealFrac(t *testing.T) {
	a := cpuTicks{total: 1000, steal: 10}
	b := cpuTicks{total: 1400, steal: 30}
	if got := stealFrac(a, b); got != 0.05 {
		t.Fatalf("stealFrac = %v, want 0.05", got)
	}
	if got := stealFrac(b, a); got != 0 {
		t.Fatalf("stealFrac backwards = %v, want 0", got)
	}
}

func TestParseCacheSize(t *testing.T) {
	for in, want := range map[string]int64{"4096K": 4 << 20, "32M": 32 << 20, "512": 512, "x": 0} {
		if got := parseCacheSize(in); got != want {
			t.Errorf("parseCacheSize(%q) = %d, want %d", in, got, want)
		}
	}
}
