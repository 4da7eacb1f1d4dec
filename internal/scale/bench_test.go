package scale

import "testing"

// BenchmarkScaleRun benchmarks a full publication sweep at the given
// population (paper topology, lossy channel), end to end: store build,
// rounds, metrics streaming, result assembly.
func benchmarkScaleRun(b *testing.B, n int) {
	cfg := testConfig(n, 1)
	cfg.Publications = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaleRun10k(b *testing.B)  { benchmarkScaleRun(b, 10_000) }
func BenchmarkScaleRun100k(b *testing.B) { benchmarkScaleRun(b, 100_000) }
