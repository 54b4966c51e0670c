package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestPointDist(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{1.5, 2.5}, Point{1.5, 2.5}, 0},
	}
	for _, c := range cases {
		if got := c.a.Dist(c.b); !almostEq(got, c.want) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.a.Dist2(c.b); !almostEq(got, c.want*c.want) {
			t.Errorf("Dist2(%v,%v) = %v, want %v", c.a, c.b, got, c.want*c.want)
		}
	}
}

// clampPt maps an arbitrary quick-generated point into a sane range so the
// metric-axiom properties are not dominated by overflow.
func clampPt(p Point) Point {
	c := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	return Point{c(p.X), c(p.Y)}
}

func TestDistMetricAxioms(t *testing.T) {
	symmetry := func(a, b Point) bool {
		a, b = clampPt(a), clampPt(b)
		return almostEq(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(symmetry, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a Point) bool {
		a = clampPt(a)
		return a.Dist(a) == 0
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	triangle := func(a, b, c Point) bool {
		a, b, c = clampPt(a), clampPt(b), clampPt(c)
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
	nonneg := func(a, b Point) bool {
		a, b = clampPt(a), clampPt(b)
		return a.Dist(b) >= 0
	}
	if err := quick.Check(nonneg, nil); err != nil {
		t.Errorf("non-negativity: %v", err)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Width() != 0 || e.Height() != 0 {
		t.Fatal("empty rect should have zero measures")
	}
	if e.ContainsPoint(Point{0, 0}) {
		t.Fatal("empty rect contains no point")
	}
	r := Rect{0, 0, 1, 1}
	if got := e.Union(r); got != r {
		t.Fatalf("empty ∪ r = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Fatalf("r ∪ empty = %v, want %v", got, r)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Fatal("empty rect intersects nothing")
	}
	if !r.ContainsRect(e) {
		t.Fatal("every rect contains the empty rect")
	}
	if e.ContainsRect(r) {
		t.Fatal("empty rect contains no non-empty rect")
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 4, 2}
	if r.Width() != 4 || r.Height() != 2 {
		t.Fatalf("measures wrong: %v", r)
	}
	if r.Center() != (Point{2, 1}) {
		t.Fatalf("Center = %v", r.Center())
	}
	for _, p := range []Point{{0, 0}, {4, 2}, {2, 1}, {0, 2}} {
		if !r.ContainsPoint(p) {
			t.Errorf("%v should contain %v", r, p)
		}
	}
	for _, p := range []Point{{-0.1, 0}, {4.1, 2}, {2, 2.5}} {
		if r.ContainsPoint(p) {
			t.Errorf("%v should not contain %v", r, p)
		}
	}
}

func TestRectIntersectsContains(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	c := Rect{2, 2, 4, 4} // touches a at a corner
	d := Rect{5, 5, 6, 6}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("a and b intersect")
	}
	if !a.Intersects(c) {
		t.Error("touching rectangles intersect (closed rects)")
	}
	if a.Intersects(d) {
		t.Error("a and d are disjoint")
	}
	if !a.ContainsRect(Rect{0.5, 0.5, 1.5, 1.5}) {
		t.Error("inner rect should be contained")
	}
	if a.ContainsRect(b) {
		t.Error("b sticks out of a")
	}
}

func randRect(rng *rand.Rand) Rect {
	x1, y1 := rng.Float64()*100, rng.Float64()*100
	x2, y2 := x1+rng.Float64()*50, y1+rng.Float64()*50
	return Rect{x1, y1, x2, y2}
}

func TestRectUnionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatalf("union %v of %v,%v does not contain both", u, a, b)
		}
		if u != b.Union(a) {
			t.Fatalf("union not commutative for %v, %v", a, b)
		}
		// Sampled point containment coherence.
		p := Point{rng.Float64() * 150, rng.Float64() * 150}
		if a.ContainsPoint(p) && !u.ContainsPoint(p) {
			t.Fatalf("point %v in a=%v but not in union %v", p, a, u)
		}
	}
}

func TestMinMaxDist(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	cases := []struct {
		p   Point
		min float64
	}{
		{Point{1, 1}, 0},            // inside
		{Point{3, 1}, 1},            // right of rect
		{Point{-1, -1}, math.Sqrt2}, // diagonal outside
		{Point{1, 5}, 3},            // above
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); !almostEq(got, c.min) {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.min)
		}
	}
	if !math.IsInf(EmptyRect().MinDist2(Point{0, 0}), 1) {
		t.Error("MinDist2 of empty rect should be +inf")
	}
}

// MinDist must lower-bound the distance to every point inside the rect.
func TestMinMaxDistBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		r := randRect(rng)
		q := Point{rng.Float64()*300 - 100, rng.Float64()*300 - 100}
		lo := r.MinDist(q)
		for j := 0; j < 20; j++ {
			p := Point{
				r.MinX + rng.Float64()*r.Width(),
				r.MinY + rng.Float64()*r.Height(),
			}
			if d := q.Dist(p); d < lo-1e-9 {
				t.Fatalf("point %v in %v at distance %v, below MinDist %v from %v", p, r, d, lo, q)
			}
		}
	}
}

func TestCircle(t *testing.T) {
	c := Circle{C: Point{0, 0}, R: 5}
	if !c.ContainsPoint(Point{3, 4}) {
		t.Error("boundary point should be contained")
	}
	if c.ContainsPoint(Point{3.01, 4.01}) {
		t.Error("outside point should not be contained")
	}
	if !c.IntersectsRect(Rect{3, 3, 10, 10}) {
		t.Error("rect with corner inside should intersect")
	}
	if c.IntersectsRect(Rect{6, 6, 10, 10}) {
		t.Error("distant rect should not intersect")
	}
}

func TestCircleRectConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		c := Circle{C: Point{rng.Float64() * 100, rng.Float64() * 100}, R: rng.Float64() * 40}
		r := randRect(rng)
		intersects := c.IntersectsRect(r)
		// Sample points in the rect; a contained point implies the rect
		// intersects the disk.
		for j := 0; j < 10; j++ {
			p := Point{r.MinX + rng.Float64()*r.Width(), r.MinY + rng.Float64()*r.Height()}
			if c.ContainsPoint(p) && !intersects {
				t.Fatalf("circle %v contains point %v of %v but IntersectsRect is false", c, p, r)
			}
		}
	}
}

func TestLens(t *testing.T) {
	a, b := Point{0, 0}, Point{4, 0}
	r := 4.0
	if !Lens(a, b, r, Point{2, 0}) {
		t.Error("midpoint is in the lens")
	}
	if !Lens(a, b, r, a) || !Lens(a, b, r, b) {
		t.Error("both centers are in the lens when r = d(a,b)")
	}
	if Lens(a, b, r, Point{-1, 0}) {
		t.Error("point behind a is outside C(b, r)")
	}
	if Lens(a, b, r, Point{2, 4}) {
		t.Error("point above the lens tip is outside")
	}
	// Lens tip: at (2, 2*sqrt(3)) both distances are exactly 4.
	tip := Point{2, 2 * math.Sqrt(3)}
	if !Lens(a, b, r, tip) {
		t.Error("lens tip should be included (boundary inclusive)")
	}
}

func TestStringers(t *testing.T) {
	if s := (Point{1, 2}).String(); s == "" {
		t.Error("Point.String empty")
	}
	if s := (Rect{0, 0, 1, 1}).String(); s == "" {
		t.Error("Rect.String empty")
	}
	if s := EmptyRect().String(); s != "Rect(empty)" {
		t.Errorf("EmptyRect.String = %q", s)
	}
}

// TestDistFormulationsAgree pins Point.Dist to the one formulation the
// module allows: the correctly rounded square root of Dist2, bit for bit,
// which is also what the naive sqrt(dx²+dy²) of a call site would give.
// TestSourceRules forbids every other formulation (math.Hypot rounds
// differently), so pruning bounds and the distances they bound agree.
func TestDistFormulationsAgree(t *testing.T) {
	pts := []Point{
		{0, 0}, {1, 0}, {0, 1}, {3, 4},
		{-2.5, 7.125}, {1e-9, -1e-9}, {1e6, -1e6},
		{0.1, 0.2}, {123.456, -654.321}, {1e-300, 1e-300},
		{5e-324, -5e-324}, {1e154, 1e154}, {-1e300, 1e300},
		{math.MaxFloat64, 0}, {0, -math.SmallestNonzeroFloat64},
	}
	for _, p := range pts {
		for _, r := range pts {
			got := p.Dist(r)
			dx, dy := p.X-r.X, p.Y-r.Y
			for _, want := range []float64{math.Sqrt(p.Dist2(r)), math.Sqrt(dx*dx + dy*dy)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("Dist(%v, %v) = %v (%016x), sqrt form = %v (%016x)", p, r, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestMinDistBoundsDistExactly is the law the index descents rely on:
// for every point o of a rectangle r, MinDist(r, p) ≤ Dist(p, o) with no
// tolerance — the rectangle's corners and edges included, and at
// magnitudes where the squares underflow to subnormals or zero or
// overflow to +Inf.
func TestMinDistBoundsDistExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	for _, scale := range []float64{1e-310, 1e-300, 1e-160, 1e-10, 1, 1e3, 1e10, 1e154, 1e200, 1e300} {
		coord := func() float64 { return scale * (2*rng.Float64() - 1) }
		for i := 0; i < 2000; i++ {
			x0, x1, y0, y1 := coord(), coord(), coord(), coord()
			r := Rect{math.Min(x0, x1), math.Min(y0, y1), math.Max(x0, x1), math.Max(y0, y1)}
			p := Point{coord(), coord()}
			if i%4 == 0 {
				p = Point{coord() * 3, coord() * 3} // far outside, up to overflow
			}
			lo := r.MinDist(p)
			for _, o := range []Point{
				{r.MinX, r.MinY}, {r.MinX, r.MaxY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY},
				{math.Max(r.MinX, math.Min(p.X, r.MaxX)), math.Max(r.MinY, math.Min(p.Y, r.MaxY))}, // nearest point
				{r.MinX + rng.Float64()*(r.MaxX-r.MinX), r.MinY + rng.Float64()*(r.MaxY-r.MinY)},
				{r.MinX, math.Max(r.MinY, math.Min(p.Y, r.MaxY))},
			} {
				if !r.ContainsPoint(o) {
					continue // r.MaxX-r.MinX overflowed
				}
				if d := p.Dist(o); !(lo <= d) {
					t.Fatalf("scale %g: %v in %v at distance %v (%016x) from %v, below MinDist %v (%016x)",
						scale, o, r, d, math.Float64bits(d), p, lo, math.Float64bits(lo))
				}
			}
		}
	}
}
