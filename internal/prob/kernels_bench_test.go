package prob

import (
	"fmt"
	"math/rand"
	"testing"

	"pvcagg/internal/value"
)

// Micro-benchmarks for the distribution kernels, each paired with its
// map-based reference implementation so the merge-kernel speedup is
// directly visible in one -bench run:
//
//	go test ./internal/prob -bench BenchmarkConvolve -benchmem

func benchDist(n int, seed int64) Dist {
	r := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair{value.Int(int64(i)), r.Float64()})
	}
	return FromPairs(pairs)
}

func BenchmarkConvolve(b *testing.B) {
	add := func(x, y value.V) value.V { return x.Add(y) }
	for _, size := range []int{8, 64, 512} {
		a := benchDist(size, 1)
		c := benchDist(4, 2) // the common shape: big running dist × small operand
		cap := &Cap{Above: true, Limit: value.Int(int64(size))}
		b.Run(fmt.Sprintf("merge/n=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Convolve(a, c, add, cap)
			}
		})
		b.Run(fmt.Sprintf("mapref/n=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				convolveRef(a, c, add, cap)
			}
		})
	}
}

// BenchmarkConvolveSum measures the ⊕sum shapes a TPC-H-style run is made
// of — most nodes are 2×2, most cells sit in a few nodes with operands of
// hundreds to thousands of points — uncapped and capped at the median
// output value, for the integer-sum kernel, the generic kernel and the
// map-based reference side by side.
func BenchmarkConvolveSum(b *testing.B) {
	for _, size := range []int{2, 16, 400, 1700} {
		x, y := benchDist(size, 8), benchDist(size, 9)
		for _, c := range []struct {
			name string
			cap  *Cap
		}{
			{"uncapped", nil},
			{"capped", &Cap{Above: true, Limit: value.Int(int64(size - 1))}},
		} {
			shape := fmt.Sprintf("%dx%d/%s", size, size, c.name)
			b.Run("sum/"+shape, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ConvolveSum(x, y, c.cap)
				}
			})
			b.Run("generic/"+shape, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Convolve(x, y, value.V.Add, c.cap)
				}
			})
			b.Run("mapref/"+shape, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					convolveRef(x, y, value.V.Add, c.cap)
				}
			})
		}
	}
}

func BenchmarkMixture(b *testing.B) {
	branches := []Dist{benchDist(64, 3), benchDist(64, 4)}
	weights := []float64{0.5, 0.5}
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Mixture(branches, weights)
		}
	})
	b.Run("mapref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mixtureRef(branches, weights)
		}
	})
}

func BenchmarkCmpConvolve(b *testing.B) {
	x := benchDist(512, 5)
	y := benchDist(512, 6)
	for _, th := range []value.Theta{value.LE, value.EQ} {
		b.Run("merge/"+th.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CmpConvolve(x, y, th)
			}
		})
		b.Run("crossref/"+th.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cmpConvolveRef(x, y, th)
			}
		})
	}
}

func BenchmarkMap(b *testing.B) {
	d := benchDist(256, 7)
	f := func(v value.V) value.V { return value.Bool(v.Truth()) }
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Map(d, f)
		}
	})
	b.Run("mapref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mapRef(d, f)
		}
	})
}
