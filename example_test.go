package simpush_test

import (
	"context"
	"fmt"

	simpush "github.com/simrank/simpush"
)

// The two children of a shared parent have SimRank exactly c = 0.6: their
// √c-walks meet at the parent with probability c and can never re-meet.
func Example() {
	g, err := simpush.FromEdges([]int32{0, 0}, []int32{1, 2}, false)
	if err != nil {
		panic(err)
	}
	c, err := simpush.NewClient(g, simpush.Options{Epsilon: 0.005, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	s, err := c.Pair(context.Background(), 1, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("s(1,2) = %.2f\n", s)
	// Output: s(1,2) = 0.60
}

func ExampleClient_TopK() {
	// A 4-node graph: 3 and 4 are two-hop siblings via 1 and 2.
	g, err := simpush.FromEdges(
		[]int32{0, 0, 1, 2},
		[]int32{1, 2, 3, 4}, false)
	if err != nil {
		panic(err)
	}
	c, err := simpush.NewClient(g, simpush.Options{Epsilon: 0.005, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	top, err := c.TopK(context.Background(), 3, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("most similar to 3: node %d (%.2f)\n", top[0].Node, top[0].Score)
	// Output: most similar to 3: node 4 (0.36)
}

func ExampleClient_BatchSingleSource() {
	g, err := simpush.FromEdges([]int32{0, 0, 0}, []int32{1, 2, 3}, false)
	if err != nil {
		panic(err)
	}
	c, err := simpush.NewClient(g, simpush.Options{Epsilon: 0.005, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	results, err := c.BatchSingleSource(context.Background(), []int32{1, 2}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("s(1,2) = %.2f, s(2,3) = %.2f\n", results[0].Scores[2], results[1].Scores[3])
	// Output: s(1,2) = 0.60, s(2,3) = 0.60
}

func ExampleTopK() {
	scores := []float64{1.0, 0.2, 0.8, 0.5}
	for _, r := range simpush.TopK(scores, 2, 0) {
		fmt.Printf("%d: %.1f\n", r.Node, r.Score)
	}
	// Output:
	// 2: 0.8
	// 3: 0.5
}
