// Fixture for the geodist analyzer: ad-hoc Euclidean distance math in a
// package other than geo.
package a

import "math"

type point struct{ x, y float64 }

func distHypot(p, r point) float64 {
	return math.Hypot(p.x-r.x, p.y-r.y) // want `math.Hypot outside internal/geo`
}

func distInline(p, r point) float64 {
	dx, dy := p.x-r.x, p.y-r.y
	return math.Sqrt(dx*dx + dy*dy) // want `inline Euclidean distance outside internal/geo`
}

func distInlineSelectors(p, r point) float64 {
	return math.Sqrt((p.x-r.x)*(p.x-r.x) + (p.y-r.y)*(p.y-r.y)) // want `inline Euclidean distance outside internal/geo`
}

// notDistance: a lone square root is fine.
func notDistance(n float64) float64 {
	return math.Sqrt(n)
}

// notSquares: an addend that is not a square is fine.
func notSquares(dx, dy float64) float64 {
	return math.Sqrt(dx*dx + 2*dy)
}
