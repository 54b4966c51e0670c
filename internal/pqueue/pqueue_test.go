package pqueue

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero value should be empty")
	}
	q2 := New[string](8)
	if !q2.Empty() {
		t.Fatal("New should be empty")
	}
}

func TestPushPopOrder(t *testing.T) {
	q := New[string](4)
	q.Push("c", 3)
	q.Push("a", 1)
	q.Push("d", 4)
	q.Push("b", 2)
	want := []string{"a", "b", "c", "d"}
	for i, w := range want {
		v, p := q.Pop()
		if v != w || p != float64(i+1) {
			t.Fatalf("pop %d = (%v, %v), want (%v, %d)", i, v, p, w, i+1)
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty after draining")
	}
}

func TestDuplicatePriorities(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 8; i++ {
		q.Push(i, 1.0)
	}
	seen := map[int]bool{}
	for !q.Empty() {
		v, p := q.Pop()
		if p != 1.0 {
			t.Fatalf("priority changed: %v", p)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("lost items: %d", len(seen))
	}
}

// Property: popping a randomly-filled heap yields priorities in sorted order.
func TestHeapPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(500)
		q := New[int](n)
		pris := make([]float64, n)
		for i := 0; i < n; i++ {
			pris[i] = rng.NormFloat64() * 100
			q.Push(i, pris[i])
		}
		sort.Float64s(pris)
		for i := 0; i < n; i++ {
			_, p := q.Pop()
			if p != pris[i] {
				t.Fatalf("trial %d: pop %d priority %v, want %v", trial, i, p, pris[i])
			}
		}
	}
}

// Property: interleaved pushes and pops still always pop the minimum.
func TestInterleavedOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := New[float64](0)
	var mirror []float64
	for op := 0; op < 5000; op++ {
		if q.Empty() || rng.Intn(3) > 0 {
			p := rng.Float64() * 1000
			q.Push(p, p)
			mirror = append(mirror, p)
		} else {
			sort.Float64s(mirror)
			v, p := q.Pop()
			if v != p {
				t.Fatal("value/priority pairing broken")
			}
			if p != mirror[0] {
				t.Fatalf("pop = %v, want min %v", p, mirror[0])
			}
			mirror = mirror[1:]
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pris := make([]float64, 1024)
	for i := range pris {
		pris[i] = rng.Float64()
	}
	b.ResetTimer()
	q := New[int](1024)
	for i := 0; i < b.N; i++ {
		q.Push(i, pris[i%1024])
		if q.Len() > 512 {
			q.Pop()
		}
	}
}
