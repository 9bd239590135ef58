package simmpi

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestLazyChannelFirstUse has both ends of every rank pair reach the
// pair's channel for the first time at once (all ranks leave a start gate
// together and talk to every peer), through Send/Recv and Isend/Irecv, over
// many worlds at power-of-two and other sizes. Every message must arrive
// once and in order: two ends creating different channels for one pair
// would lose messages or deadlock.
func TestLazyChannelFirstUse(t *testing.T) {
	const msgs = 4 // per ordered pair, below ChannelDepth so sends never block
	for _, nonblocking := range []bool{false, true} {
		for _, size := range []int{2, 3, 4, 7, 8, 13, 16} {
			name := fmt.Sprintf("nonblocking=%v/p=%d", nonblocking, size)
			t.Run(name, func(t *testing.T) {
				for world := 0; world < 40; world++ {
					var gate sync.WaitGroup
					gate.Add(size)
					// A lost message deadlocks the world; the short watchdog
					// turns that into a prompt failure.
					_, err := RunOpt(size, &Options{Timeout: 10 * time.Second}, func(p *Proc) error {
						gate.Done()
						gate.Wait()
						return exchangeAll(p, msgs, nonblocking)
					})
					if err != nil {
						t.Fatalf("world %d: %v", world, err)
					}
				}
			})
		}
	}
}

// exchangeAll sends msgs tagged messages to every other rank and checks
// that the ones received from each peer arrive in sequence.
func exchangeAll(p *Proc, msgs int, nonblocking bool) error {
	var recvs []*Request
	if nonblocking {
		for off := 1; off < p.Size(); off++ {
			src := (p.Rank() + off) % p.Size()
			for i := 0; i < msgs; i++ {
				recvs = append(recvs, p.Irecv(src))
			}
		}
	}
	var sends []*Request
	for off := 1; off < p.Size(); off++ {
		dst := (p.Rank() - off + p.Size()) % p.Size()
		for i := 0; i < msgs; i++ {
			msg := []float64{float64(p.Rank()), float64(i)}
			if nonblocking {
				sends = append(sends, p.Isend(dst, msg))
			} else {
				p.Send(dst, msg)
			}
		}
	}
	WaitAll(sends...)
	k := 0
	for off := 1; off < p.Size(); off++ {
		src := (p.Rank() + off) % p.Size()
		for i := 0; i < msgs; i++ {
			var got []float64
			if nonblocking {
				got = recvs[k].Wait()
				k++
			} else {
				got = p.Recv(src)
			}
			if len(got) != 2 || got[0] != float64(src) || got[1] != float64(i) {
				return fmt.Errorf("rank %d: message %d from %d = %v, want [%d %d]", p.Rank(), i, src, got, src, i)
			}
		}
	}
	return nil
}

// TestLazyChannelCount pins that channels are created only for the pairs a
// run uses: a ring exchange on 32 ranks creates 32 channels, not 32².
func TestLazyChannelCount(t *testing.T) {
	const size = 32
	var w *World
	_, err := Run(size, func(p *Proc) error {
		if p.Rank() == 0 {
			w = p.world
		}
		right := (p.Rank() + 1) % p.Size()
		left := (p.Rank() - 1 + p.Size()) % p.Size()
		for step := 0; step < 3; step++ {
			p.SendRecv(right, []float64{1}, left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	created := 0
	for i := range w.chans {
		if w.chans[i].Load() != nil {
			created++
		}
	}
	if created != size {
		t.Errorf("ring exchange on %d ranks created %d channels, want %d", size, created, size)
	}
}
