package tensor

import (
	"fmt"
	"testing"
)

// Naive-vs-tiled kernel benchmarks over the workload suite's real shapes.
// The ns/op ratios here are what the dispatch-table thresholds in
// dispatch.go encode and what CI's kernel smoke job asserts; the full
// roofline-tracked table is regenerated with `nsbench -kernel-bench`
// (see BENCH_kernels.json).

var gemmBenchShapes = []struct {
	name    string
	m, k, n int
}{
	{"256x256x256", 256, 256, 256},
	{"512x512x512", 512, 512, 512},
	{"nvsa-head-16x16x4096", 16, 16, 4096},
	{"nvsa-codebook-1x8x4096", 1, 8, 4096},
}

func BenchmarkGemmKernels(b *testing.B) {
	for _, s := range gemmBenchShapes {
		g := NewRNG(1)
		a, bb := g.Normal(0, 1, s.m, s.k), g.Normal(0, 1, s.k, s.n)
		for _, kern := range []Kernel{KernelNaive, KernelTiled} {
			b.Run(fmt.Sprintf("%s/%s", s.name, kern), func(b *testing.B) {
				b.SetBytes(2 * int64(s.m) * int64(s.k) * int64(s.n))
				for i := 0; i < b.N; i++ {
					MatMulKernelOn(Serial, kern, a, bb)
				}
			})
		}
	}
}

var convBenchShapes = []struct {
	name                          string
	n, cin, cout, hw, stride, pad int
}{
	{"nvsa-conv1-1x1x8x32", 1, 1, 8, 32, 1, 1},
	{"nvsa-conv2-1x8x16x32", 1, 8, 16, 32, 1, 1},
	{"vsait-enc-1x3x16x32", 1, 3, 16, 32, 1, 1},
	{"vsait-mid-1x16x16x32", 1, 16, 16, 32, 1, 1},
}

func BenchmarkConvKernels(b *testing.B) {
	for _, s := range convBenchShapes {
		g := NewRNG(2)
		in := g.Normal(0, 1, s.n, s.cin, s.hw, s.hw)
		w := g.Normal(0, 1, s.cout, s.cin, 3, 3)
		bias := g.Normal(0, 1, s.cout)
		for _, kern := range []Kernel{KernelNaive, KernelTiled} {
			b.Run(fmt.Sprintf("%s/%s", s.name, kern), func(b *testing.B) {
				hout := (s.hw+2*s.pad-3)/s.stride + 1
				b.SetBytes(2 * int64(s.n) * int64(s.cin) * int64(s.cout) * int64(hout) * int64(hout) * 9)
				for i := 0; i < b.N; i++ {
					Conv2DKernelOn(Serial, kern, in, w, bias, s.stride, s.pad)
				}
			})
		}
	}
}

var gemvBenchShapes = []struct {
	name string
	m, k int
}{
	{"nvsa-cleanup-2700x4096", 2700, 4096},
	{"vsait-lsh-8192x16", 8192, 16},
	{"nvsa-codebook-3x4096", 3, 4096},
}

func BenchmarkGemvKernels(b *testing.B) {
	for _, s := range gemvBenchShapes {
		g := NewRNG(3)
		a, x := g.Normal(0, 1, s.m, s.k), g.Normal(0, 1, s.k)
		for _, kern := range []Kernel{KernelNaive, KernelTiled} {
			b.Run(fmt.Sprintf("%s/%s", s.name, kern), func(b *testing.B) {
				b.SetBytes(4 * int64(s.m) * int64(s.k))
				for i := 0; i < b.N; i++ {
					MatVecKernelOn(Serial, kern, a, x)
				}
			})
		}
	}
}
