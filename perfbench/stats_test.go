package main

import (
	"runtime"
	"sync"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{20, 5000},
		{39, 5000},
		{40, 7500},
		{100, 9000},
		{199, 9000},
		{200, 9500},
		{1000, 9900},
		{10000, 9990},
		{100000, 9999},
	} {
		got, err := tailPercentile(tc.n)
		if err != nil || got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d", tc.n, got, err, tc.want)
		}
		if beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: %s leaves %d samples beyond", tc.n, pctName(got), beyond(tc.n, got))
		}
	}
	for _, n := range []int{0, 1, 19} {
		if bp, err := tailPercentile(n); err == nil {
			t.Errorf("tailPercentile(%d) = %d, want a refusal", n, bp)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(200 - i) // 200 down to 1
	}
	s, err := summarize(samples, 9500)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 200 || s.P50 != 100 || s.Tail != 190 {
		t.Fatalf("got %+v, want n 200, p50 100, p95 190", s)
	}
	if _, err := summarize(samples[:150], 9500); err == nil {
		t.Fatal("150 samples accepted for p95, which leaves only 7 beyond")
	}
}

func TestRetainedHeapClearsPools(t *testing.T) {
	base := retainedHeapMB()
	var pool sync.Pool
	pool.Put(make([]byte, 64<<20))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if held := float64(ms.HeapAlloc) / (1 << 20); held < base+60 {
		t.Fatalf("the pooled buffer was not live before the helper ran (%.1f MB, base %.1f MB)", held, base)
	}
	if after := retainedHeapMB(); after > base+8 {
		t.Fatalf("retained heap %.1f MB still counts the pooled 64 MB (base %.1f MB)", after, base)
	}
	runtime.KeepAlive(&pool)
}
