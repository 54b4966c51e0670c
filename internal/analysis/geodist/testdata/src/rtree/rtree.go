// Fixture for the geodist analyzer: a package named rtree is no longer
// exempt — only geo is.
package rtree

import "math"

type point struct{ x, y float64 }

func minDist(p, r point) float64 {
	return math.Hypot(p.x-r.x, p.y-r.y) // want `math.Hypot outside internal/geo`
}
