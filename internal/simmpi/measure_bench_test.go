package simmpi

import (
	"fmt"
	"testing"

	"extrareq/internal/profile"
)

// The BenchmarkMeasure* family tracks the measurement substrate's hot
// paths: the point-to-point exchange, the collectives that dominate the
// proxy applications' traffic, and the nonblocking halo pattern. They are
// the regression gate for the allocation work on those paths — run with
//
//	go test -run=NONE -bench=BenchmarkMeasure -benchmem ./internal/simmpi
//
// (scripts/check.sh executes one iteration of each so the benches cannot
// rot). allocs/op is the headline number: the steady-state exchange paths
// recycle message buffers through the world's pool and should stay near
// zero allocations per message.

// BenchmarkMeasurePointToPoint is a 2-rank ping-pong over Send/Recv. Each
// iteration is one full round trip per rank pair; received buffers are
// returned to the world pool exactly as the collectives do internally.
func BenchmarkMeasurePointToPoint(b *testing.B) {
	for _, elems := range []int{64, 1024} {
		b.Run(fmt.Sprintf("elems=%d", elems), func(b *testing.B) {
			payload := make([]float64, elems)
			for i := range payload {
				payload[i] = float64(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := Run(2, func(p *Proc) error {
					const rounds = 64
					for r := 0; r < rounds; r++ {
						if p.Rank() == 0 {
							p.Send(1, payload)
							msg := p.Recv(1)
							p.release(msg)
						} else {
							msg := p.Recv(0)
							p.release(msg)
							p.Send(0, payload)
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeasureCollectives exercises the collective algorithms the
// proxy apps lean on (allreduce for CG solvers, allgather for halo
// assembly, alltoall for transposes).
func BenchmarkMeasureCollectives(b *testing.B) {
	const (
		ranks = 16
		elems = 256
	)
	payload := make([]float64, elems)
	for i := range payload {
		payload[i] = float64(i)
	}
	b.Run("Allreduce", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(ranks, func(p *Proc) error {
				p.Allreduce(payload, Sum)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Allgather", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(ranks, func(p *Proc) error {
				p.Allgather(payload)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Reduce", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(ranks, func(p *Proc) error {
				p.Reduce(0, payload, Sum)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Barrier", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(ranks, func(p *Proc) error {
				p.Barrier()
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMeasureHaloExchange is the nonblocking halo pattern every
// stencil proxy uses: post Isend/Irecv to both neighbours, then WaitAll.
func BenchmarkMeasureHaloExchange(b *testing.B) {
	const (
		ranks = 8
		elems = 128
	)
	halo := make([]float64, elems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(ranks, func(p *Proc) error {
			right := (p.Rank() + 1) % p.Size()
			left := (p.Rank() - 1 + p.Size()) % p.Size()
			const steps = 16
			for s := 0; s < steps; s++ {
				sr := p.Isend(right, halo)
				sl := p.Isend(left, halo)
				rr := p.Irecv(right)
				rl := p.Irecv(left)
				for _, msg := range WaitAll(sr, sl, rr, rl) {
					p.release(msg)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureWorldSetup is a 32-rank run whose ranks do nothing: the
// fixed cost of standing up and tearing down a world (rank goroutines,
// counter sets, profilers, the channel table). Channels are created on
// first use, so allocs/op must not grow with the p² rank pairs.
func BenchmarkMeasureWorldSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(32, func(p *Proc) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureProfile is the call-path accounting every instrumented
// event pays: entering a region, adding metrics to fixed slots, exiting.
// A warm tree allocates nothing.
func BenchmarkMeasureProfile(b *testing.B) {
	prof := profile.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof.Enter("cg")
		prof.AddMetric(profile.Flop, 34)
		prof.AddMetric(profile.Loads, 8)
		prof.Enter("MPI_Allreduce")
		prof.AddMetric(profile.BytesSent, 16)
		prof.AddMetric(profile.BytesRecv, 16)
		prof.Exit("MPI_Allreduce")
		prof.Exit("cg")
	}
}
