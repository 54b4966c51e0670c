package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
)

// Pool shapes: how genPool places objects and names them.
const (
	shapeRandom  = iota // uniform locations, now and then an exact copy of the last object
	shapeTies           // every object on one of two circles, several per location
	shapeDupLocs        // every object at one of three locations, the centre among them
	shapeSameGID        // objects in pairs: one GID on two shards, at one location or two
	shapeCount
)

// genPool draws a pool of n candidates over words query words around a
// centre. Keys follow the router's (GID, shard) layout; a mask may be
// zero, so NewPool has irrelevant objects to drop.
func genPool(rng *rand.Rand, shape, n, words int) (geo.Point, []PoolObject) {
	at := geo.Point{X: 50, Y: 50}
	full := ^kwds.Mask(0) >> uint(kwds.MaxQueryKeywords-words)
	mask := func() kwds.Mask {
		if rng.Intn(8) == 0 {
			return 0
		}
		if m := kwds.Mask(rng.Int63()) & full; m != 0 {
			return m
		}
		return 1 << uint(rng.Intn(words))
	}
	var objs []PoolObject
	add := func(loc geo.Point, gid, shard int) {
		objs = append(objs, PoolObject{Loc: loc, Mask: mask(), Key: uint64(gid)<<32 | uint64(shard), Ref: int32(len(objs))})
	}
	for i := 0; len(objs) < n; i++ {
		switch shape {
		case shapeTies:
			// Axis offsets make hypot exact, so each circle is one distance.
			r := float64(5 * (1 + rng.Intn(2)))
			offs := [4]geo.Point{{X: r}, {X: -r}, {Y: r}, {Y: -r}}
			o := offs[rng.Intn(4)]
			add(geo.Point{X: at.X + o.X, Y: at.Y + o.Y}, i, rng.Intn(3))
		case shapeDupLocs:
			locs := [3]geo.Point{{X: 10, Y: 20}, {X: 60, Y: 45}, at}
			add(locs[rng.Intn(3)], i, rng.Intn(3))
		case shapeSameGID:
			loc := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			add(loc, i, 0)
			if rng.Intn(2) == 0 {
				loc = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			}
			add(loc, i, 1)
		default:
			add(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, i, rng.Intn(4))
			if rng.Intn(6) == 0 {
				dup := objs[len(objs)-1]
				dup.Ref = int32(len(objs))
				objs = append(objs, dup)
			}
		}
	}
	rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
	return at, objs
}

// hit is one object a stream yielded: its distance bits, identity (the
// pool Key) and query mask.
type hit struct {
	d, key uint64
	mask   kwds.Mask
}

// sorted returns hs in (distance, key) order: the pool's order.
func sorted(hs []hit) []hit {
	hs = slices.Clone(hs)
	slices.SortFunc(hs, func(a, b hit) int { return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.key, b.key)) })
	return hs
}

// poolPair is one pool and the two arms of the source over its objects:
// the pool itself and an IR-tree over a dataset holding each Key once,
// query word i as keyword i and the one keyword words outside the query.
type poolPair struct {
	at     geo.Point
	words  int
	pool   *Pool
	pl, tr source
	qi     *kwds.QueryIndex
	keyOf  []uint64 // dataset id → Key
}

func newPoolPair(at geo.Point, words int, objs []PoolObject) *poolPair {
	pp := &poolPair{at: at, words: words, pool: NewPool(at, words, slices.Clone(objs))}
	pp.pl = source{pool: pp.pool}
	b := dataset.NewBuilder("pool")
	for i := 0; i <= words; i++ {
		b.Vocab().Intern(fmt.Sprint("w", i))
	}
	seen := map[uint64]bool{}
	for _, o := range objs {
		if seen[o.Key] {
			continue
		}
		seen[o.Key] = true
		var set kwds.Set
		for m := o.Mask; m != 0; m &= m - 1 {
			set = append(set, kwds.ID(bits.TrailingZeros64(uint64(m))))
		}
		if o.Mask == 0 || o.Key%3 == 0 {
			set = append(set, kwds.ID(words))
		}
		b.AddIDs(o.Loc, set)
		pp.keyOf = append(pp.keyOf, o.Key)
	}
	ds := b.Build()
	pp.tr = source{tree: irtree.Build(ds, 4), ds: ds}
	pp.qi = kwds.NewQueryIndex(pp.pool.query().Keywords)
	return pp
}

// key is the identity of the object id of arm src.
func (pp *poolPair) key(src source, id dataset.ObjectID) uint64 {
	if src.pool != nil {
		return src.pool.ents[id].key
	}
	return pp.keyOf[id]
}

// drain reads a stream of arm src to its end, read(j) being its j-th
// read, and checks it yields ascending distances and each object's own
// record: its distance, location and mask are what the arm says of its id.
func (pp *poolPair) drain(t testing.TB, name string, src source, read func(j int) (cand, bool)) []hit {
	t.Helper()
	var out []hit
	for j := 0; ; j++ {
		c, ok := read(j)
		if !ok {
			return out
		}
		if c.d != pp.at.Dist(c.loc) || (len(out) > 0 && math.Float64bits(c.d) < out[len(out)-1].d) {
			t.Fatalf("%s: object %d at %v out of order or misplaced (%v)", name, c.id, c.d, out)
		}
		if c.loc != src.loc(c.id) || c.mask != src.mask(pp.qi, c.id) {
			t.Fatalf("%s: object %d yielded at %v with mask %b, its own are %v and %b", name, c.id, c.loc, c.mask, src.loc(c.id), src.mask(pp.qi, c.id))
		}
		out = append(out, hit{math.Float64bits(c.d), pp.key(src, c.id), c.mask})
	}
}

// cuts returns ascending limits: each strictly between two of the pool's
// distinct distances, far from both by more than the ulp the tree's
// rectangle bounds may differ by, then one past the last and +Inf.
func (pp *poolPair) cuts() []float64 {
	var ds []float64
	for _, e := range pp.pool.ents {
		ds = append(ds, e.d)
	}
	ds = slices.Compact(ds)
	var out []float64
	for i := range ds {
		lo, hi := 0.0, ds[i]
		if i > 0 {
			lo = ds[i-1]
		}
		if hi-lo > 1e-9*hi {
			out = append(out, (lo+hi)/2)
		}
	}
	if len(ds) > 0 {
		out = append(out, ds[len(ds)-1]+1)
	}
	return append(out, math.Inf(1))
}

// check holds the pool arm to the tree arm: the relevant stream (distance
// bits, the set of ids at each distance, masks) under fixed and falling
// limits, the keyword streams, NN and NN2 at the centre and off it, and
// the identity-order scan.
func (pp *poolPair) check(t testing.TB) {
	t.Helper()
	arms := [2]source{pp.tr, pp.pl}
	cuts := pp.cuts()
	// The falling schedule drops two cuts a read, but never below the
	// distance just read: a cut inside a group of ties would keep an
	// arbitrary part of the group on the tree arm.
	schedules := map[string]func(int) float64{
		"falling": func(j int) float64 {
			l := cuts[max(0, len(cuts)-1-2*j)]
			if j > 0 {
				d := pp.pool.ents[j-1].d
				l = max(l, cuts[slices.IndexFunc(cuts, func(c float64) bool { return c > d })])
			}
			return l
		},
	}
	for i, c := range cuts {
		schedules[fmt.Sprint("cut", i)] = func(int) float64 { return c }
	}
	for name, limit := range schedules {
		var got [2][]hit
		for a, src := range arms {
			st := src.relevant(pp.at, pp.qi)
			read := func(j int) (cand, bool) {
				st.Limit(limit(j)) // before every read, as ownerEnum.pop does
				return st.Next()
			}
			got[a] = pp.drain(t, "relevant/"+name, src, read)
		}
		if want := sorted(got[0]); !slices.Equal(got[1], want) {
			t.Fatalf("relevant stream, limits %s: pool %v, tree %v", name, got[1], want)
		}
	}

	for kw := kwds.ID(0); int(kw) < pp.words; kw++ {
		var got [2][]hit
		for a, src := range arms {
			st := src.keyword(pp.at, pp.qi, kw)
			got[a] = pp.drain(t, "keyword", src, func(int) (cand, bool) { return st.Next() })
		}
		if want := sorted(got[0]); !slices.Equal(got[1], want) {
			t.Fatalf("keyword %d stream: pool %v, tree %v", kw, got[1], want)
		}
		points := []geo.Point{pp.at, {X: 17.25, Y: 83.5}}
		if len(pp.pool.ents) > 0 {
			points = append(points, pp.pool.ents[len(pp.pool.ents)/2].loc)
		}
		for _, p := range points {
			var d1s, d2s [2]float64
			var oks [2]bool
			for a, src := range arms {
				id, d1, d2, ok := src.nn2(p, kw)
				nid, nd, nok := src.nn(p, kw)
				if nid != id || nd != d1 || nok != ok {
					t.Fatalf("NN(%v, %d) = %d at %v (%v), NN2 says %d at %v (%v)", p, kw, nid, nd, nok, id, d1, ok)
				}
				if ok && (src.mask(pp.qi, id)&(1<<kw) == 0 || p.Dist(src.loc(id)) != d1) {
					t.Fatalf("NN(%v, %d) = object %d, which lacks the word or is not at %v", p, kw, id, d1)
				}
				d1s[a], d2s[a], oks[a] = d1, d2, ok
			}
			if oks[0] != oks[1] || d1s[0] != d1s[1] || d2s[0] != d2s[1] {
				t.Fatalf("NN2(%v, %d): pool %v %v %v, tree %v %v %v", p, kw, oks[1], d1s[1], d2s[1], oks[0], d1s[0], d2s[0])
			}
		}
	}

	var scanned [2][]uint64
	for a, src := range arms {
		src.scan(pp.qi, func(id dataset.ObjectID, m kwds.Mask) {
			if m != src.mask(pp.qi, id) {
				t.Fatalf("scan: object %d with mask %b, its own is %b", id, m, src.mask(pp.qi, id))
			}
			scanned[a] = append(scanned[a], pp.key(src, id))
		})
	}
	if slices.Sort(scanned[0]); !slices.Equal(scanned[1], scanned[0]) {
		t.Fatalf("scan: pool yields keys %v, the tree's relevant objects are %v", scanned[1], scanned[0])
	}
}

// solve holds SolvePool to an engine over the tree arm's dataset under
// every exact method and cost: the same error class and the same cost.
func (pp *poolPair) solve(t testing.TB, brute bool) {
	t.Helper()
	eng := &Engine{DS: pp.tr.ds, Tree: pp.tr.tree}
	q := pp.pool.query()
	for cost := MaxSum; cost <= SumMax; cost++ {
		for _, m := range []Method{OwnerExact, PairsExact, CaoExact, Brute} {
			if ApproRatioBound(cost, m) != 1 || (m == Brute && !brute) {
				continue
			}
			want, werr := eng.Solve(q, cost, m)
			got, gerr := eng.SolvePool(context.Background(), pp.pool, cost, m)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%v/%v: pool error %v, tree error %v", cost, m, gerr, werr)
			}
			if werr == nil && math.Abs(got.Cost-want.Cost) > 1e-9*math.Max(1, want.Cost) {
				t.Fatalf("%v/%v: pool cost %v, tree cost %v", cost, m, got.Cost, want.Cost)
			}
		}
	}
}

// TestPoolSourceMatchesTree holds the pool arm of the source to an
// IR-tree over the same objects on pools built to tie: equal distances,
// shared locations, one GID on two shards, exact copies, and the empty
// pool.
func TestPoolSourceMatchesTree(t *testing.T) {
	cases := []struct {
		name         string
		shape, n, kw int
	}{
		{"random", shapeRandom, 40, 4},
		{"random-one-word", shapeRandom, 25, 1},
		{"distance-ties", shapeTies, 30, 3},
		{"duplicate-locations", shapeDupLocs, 24, 3},
		{"same-gid-two-shards", shapeSameGID, 30, 4},
		{"one-object", shapeRandom, 1, 2},
		{"empty", shapeRandom, 0, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				at, objs := genPool(rand.New(rand.NewSource(seed)), c.shape, c.n, c.kw)
				pp := newPoolPair(at, c.kw, objs)
				pp.check(t)
				pp.solve(t, c.n <= 24)
			}
		})
	}
}

// TestPoolStreamsOnlyFromItsPoint: a pool's cursors are ordered from its
// query point, so a stream from anywhere else is a bug, not an answer.
func TestPoolStreamsOnlyFromItsPoint(t *testing.T) {
	at, objs := genPool(rand.New(rand.NewSource(3)), shapeRandom, 10, 2)
	src := source{pool: NewPool(at, 2, objs)}
	for name, open := range map[string]func(){
		"relevant": func() { src.relevant(geo.Point{X: 1}, nil) },
		"keyword":  func() { src.keyword(geo.Point{X: 1}, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s stream opened off the pool's point", name)
				}
			}()
			open()
		}()
	}
}

// FuzzPoolSource runs the table test's checks on pools the fuzzer shapes.
func FuzzPoolSource(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(3), uint8(shapeRandom))
	f.Add(int64(2), uint8(20), uint8(2), uint8(shapeTies))
	f.Add(int64(3), uint8(12), uint8(4), uint8(shapeDupLocs))
	f.Add(int64(4), uint8(16), uint8(5), uint8(shapeSameGID))
	f.Fuzz(func(t *testing.T, seed int64, n, words, shape uint8) {
		kw := 1 + int(words)%6
		at, objs := genPool(rand.New(rand.NewSource(seed)), int(shape)%shapeCount, int(n)%64, kw)
		pp := newPoolPair(at, kw, objs)
		pp.check(t)
		pp.solve(t, false)
	})
}
