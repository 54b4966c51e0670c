package epoch

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// benchStore builds a store over a mid-size dataset for the read-path
// benchmarks.
func benchStore(b *testing.B, objects int) *Store {
	b.Helper()
	ds := datagen.Generate(datagen.Config{
		Name: "bench", NumObjects: objects, VocabSize: 128, AvgKeywords: 4, Seed: 99,
	})
	st := New(core.NewEngine(ds, 0), Options{})
	b.Cleanup(st.Close)
	return st
}

func benchQuery(rng *rand.Rand, g *Generation) (core.Query, bool) {
	var set kwds.Set
	for i := 0; i < 3; i++ {
		if id, ok := g.Eng.DS.Vocab.Lookup(fmt.Sprintf("w%06d", rng.Intn(16))); ok {
			set = set.Union(kwds.NewSet(id))
		}
	}
	if set.IsEmpty() {
		return core.Query{}, false
	}
	return core.Query{Loc: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, Keywords: set}, true
}

// BenchmarkReadQuiescent is the baseline: solves against a store with
// no writers — the cost of the pin/unpin discipline alone on top of a
// static engine.
func BenchmarkReadQuiescent(b *testing.B) {
	st := benchStore(b, 2000)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := st.Pin()
		if q, ok := benchQuery(rng, g); ok {
			if _, err := g.Eng.Solve(q, core.MaxSum, core.OwnerAppro); err != nil && err != core.ErrInfeasible {
				b.Fatal(err)
			}
		}
		g.Unpin()
	}
}

// BenchmarkReadUnderChurn measures read latency while a writer streams
// mutations as fast as the applier absorbs them — the number the
// epoch design exists to keep flat: reads never wait on a rebuild.
func BenchmarkReadUnderChurn(b *testing.B) {
	st := benchStore(b, 2000)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		stream := datagen.NewChurnStream(datagen.ChurnConfig{
			Seed: 2, Ops: 1 << 30, SeedKeys: 2000, Vocab: 128,
		})
		for {
			select {
			case <-stop:
				return
			default:
			}
			var batch []Op
			for i := 0; i < 32; i++ {
				op, _ := stream.Next()
				batch = append(batch, toEpochOp(op))
			}
			if _, err := st.ApplyBatch(batch); err != nil {
				// Backlog full: the applier is saturated; let it drain.
				if err := st.WaitIdle(context.Background()); err != nil {
					return
				}
			}
		}
	}()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := st.Pin()
		if q, ok := benchQuery(rng, g); ok {
			if _, err := g.Eng.Solve(q, core.MaxSum, core.OwnerAppro); err != nil && err != core.ErrInfeasible {
				b.Fatal(err)
			}
		}
		g.Unpin()
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkPinUnpin isolates the snapshot discipline itself.
func BenchmarkPinUnpin(b *testing.B) {
	st := benchStore(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Pin().Unpin()
	}
}

// benchApply measures one applier pass per 32-op delta, from enqueue to
// visible — the write amplification a mutation batch pays.
func benchApply(b *testing.B, st *Store, vocab int) {
	g := st.Pin()
	n := g.Eng.DS.Len()
	g.Unpin()
	stream := datagen.NewChurnStream(datagen.ChurnConfig{
		Seed: 3, Ops: 1 << 30, SeedKeys: n, Vocab: vocab,
	})
	batch := make([]Op, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			op, _ := stream.Next()
			batch[j] = toEpochOp(op)
		}
		if _, err := st.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		if err := st.WaitIdle(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApply(b *testing.B) { benchApply(b, benchStore(b, 2000), 128) }

// BenchmarkApplyHotel is the same pass at the size of the hotel-churn
// workload: 20,790 objects over 602 words.
func BenchmarkApplyHotel(b *testing.B) {
	cfg := datagen.ProfileHotel(99)
	st := New(core.NewEngine(datagen.Generate(cfg), 0), Options{})
	b.Cleanup(st.Close)
	benchApply(b, st, cfg.VocabSize)
}
