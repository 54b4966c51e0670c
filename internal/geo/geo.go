// Package geo provides the planar Euclidean geometry substrate used by the
// spatial indexes and the CoSKQ algorithms: points, axis-aligned rectangles
// (MBRs), circles, and the distance predicates the distance owner-driven
// search relies on (point–point and point–rectangle minimum distance, and
// the circle and lens tests of the index descents).
//
// All coordinates are float64 and distances are Euclidean, matching the
// paper's setting.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and r: the square root of
// Dist2, the one formulation every distance of the module shares. Rect's
// MinDist is the square root of a sum of squares no larger than Dist2 for
// any point of the rectangle, so MinDist(r, p) ≤ Dist(p, o) holds exactly
// for every o in r (Sqrt is correctly rounded, hence monotone).
func (p Point) Dist(r Point) float64 {
	return math.Sqrt(p.Dist2(r))
}

// Dist2 returns the squared Euclidean distance between p and r. It avoids
// the square root for comparison-only call sites on hot paths.
func (p Point) Dist2(r Point) float64 {
	dx, dy := p.X-r.X, p.Y-r.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y)
}

// Rect is a closed axis-aligned rectangle (a minimum bounding rectangle).
// A Rect is valid when MinX <= MaxX and MinY <= MaxY; EmptyRect is the
// identity element for Union.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the empty rectangle: the Union identity, containing no
// points and intersecting nothing.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool {
	return r.MinX > r.MaxX || r.MinY > r.MaxY
}

// Width returns the extent of r along the x axis (0 when empty).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the extent of r along the y axis (0 when empty).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Center returns the center point of r. Undefined for the empty rectangle.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// ContainsPoint reports whether p lies inside r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely inside r. The empty
// rectangle is contained in every rectangle.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	if r.IsEmpty() {
		return false
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// ExtendPoint returns the minimum bounding rectangle of r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(RectFromPoint(p))
}

// MinDist returns the minimum Euclidean distance from p to any point of r,
// which is 0 when p lies inside r. This is the classic R-tree MINDIST bound:
// no object inside r can be closer to p than MinDist.
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDist2(p))
}

// MinDist2 returns the squared MinDist.
func (r Rect) MinDist2(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(math.Max(r.MinX-p.X, 0), p.X-r.MaxX)
	dy := math.Max(math.Max(r.MinY-p.Y, 0), p.Y-r.MaxY)
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	if r.IsEmpty() {
		return "Rect(empty)"
	}
	return fmt.Sprintf("Rect[%.6g,%.6g – %.6g,%.6g]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// Circle is a closed disk with center C and radius R (R >= 0).
type Circle struct {
	C Point
	R float64
}

// ContainsPoint reports whether p lies inside c (boundary inclusive, with a
// tiny relative tolerance so that points constructed to sit exactly on the
// boundary are not excluded by floating-point rounding).
func (c Circle) ContainsPoint(p Point) bool {
	d2 := c.C.Dist2(p)
	r2 := c.R * c.R
	return d2 <= r2 || d2 <= r2*(1+1e-12)+1e-300
}

// IntersectsRect reports whether the disk c and the rectangle r share at
// least one point.
func (c Circle) IntersectsRect(r Rect) bool {
	return r.MinDist2(c.C) <= c.R*c.R
}

// Lens reports whether p lies in the intersection region
// C(a, r) ∩ C(b, r): the "lens" the exact algorithms enumerate after fixing
// the pairwise distance owners a and b with d(a, b) = r.
func Lens(a, b Point, r float64, p Point) bool {
	return Circle{C: a, R: r}.ContainsPoint(p) && Circle{C: b, R: r}.ContainsPoint(p)
}
