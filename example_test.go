package fastsketches_test

import (
	"fmt"

	"fastsketches"
)

// The simplest use: one writer, live distinct counting.
func ExampleNewConcurrentTheta() {
	sk, err := fastsketches.NewConcurrentTheta(fastsketches.ThetaConfig{
		LgK: 12, Writers: 1, MaxError: 0.04,
	})
	if err != nil {
		panic(err)
	}
	for i := uint64(0); i < 1000; i++ {
		sk.Update(0, i)
		sk.Update(0, i) // duplicates don't count
	}
	sk.Close()
	fmt.Printf("distinct: %.0f\n", sk.Estimate())
	// Output: distinct: 1000
}

// Quantiles over a value stream, queried after draining.
func ExampleNewConcurrentQuantiles() {
	q, err := fastsketches.NewConcurrentQuantiles(fastsketches.QuantilesConfig{K: 128})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 1000; i++ {
		q.Update(0, float64(i))
	}
	q.Close()
	s := q.Snapshot()
	fmt.Printf("min=%.0f max=%.0f\n", s.Min(), s.Max())
	// Output: min=0 max=999
}

// Sequential Θ sketches support set operations.
func ExampleThetaIntersect() {
	a := fastsketches.NewThetaSketch(12, 0)
	b := fastsketches.NewThetaSketch(12, 0)
	for i := uint64(0); i < 3000; i++ {
		a.Update(i)        // A = [0, 3000)
		b.Update(i + 1000) // B = [1000, 4000)
	}
	inter := fastsketches.ThetaIntersect(a, b)
	fmt.Printf("|A∩B| = %.0f\n", inter.Estimate())
	// Output: |A∩B| = 2000
}

// Count-Min answers per-key frequency queries.
func ExampleNewConcurrentCountMin() {
	cm, err := fastsketches.NewConcurrentCountMin(fastsketches.CountMinConfig{
		Epsilon: 0.001, Delta: 0.01,
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 300; i++ {
		cm.UpdateString(0, "GET /index")
		if i%3 == 0 {
			cm.UpdateString(0, "GET /health")
		}
	}
	cm.Close()
	fmt.Printf("index=%d health=%d\n",
		cm.EstimateString("GET /index"), cm.EstimateString("GET /health"))
	// Output: index=300 health=100
}
