package graph

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// cowGraph is a graph with a private replay of its own mutations: model
// holds the rows it must have, in a buffer no other graph can reach.
type cowGraph struct {
	g     *Graph
	model []uint64
}

func (c *cowGraph) flip(t *testing.T, u, v int) {
	t.Helper()
	var err error
	if c.g.HasEdge(u, v) {
		err = c.g.RemoveEdge(u, v)
	} else {
		err = c.g.AddEdge(u, v)
	}
	if err != nil {
		t.Fatal(err)
	}
	w := c.g.Words()
	c.model[(u-1)*w+(v-1)/64] ^= 1 << uint((v-1)%64)
	c.model[(v-1)*w+(u-1)/64] ^= 1 << uint((u-1)%64)
}

// xorDiff is Diff without pages: it XORs the AdjRows of every node.
func xorDiff(prev, cur *Graph) (adds, removes [][2]int) {
	for u := 1; u <= cur.N(); u++ {
		pr, cr := prev.AdjRow(u), cur.AdjRow(u)
		for wi := range cr {
			for w := pr[wi] ^ cr[wi]; w != 0; w &= w - 1 {
				v := wi*64 + bits.TrailingZeros64(w) + 1
				switch {
				case v <= u:
				case cr[wi]&(w&-w) != 0:
					adds = append(adds, [2]int{u, v})
				default:
					removes = append(removes, [2]int{u, v})
				}
			}
		}
	}
	return adds, removes
}

// checkPages checks every graph's rows against its replay, and Diff and
// Equal of every ordered pair against xorDiff.
func checkPages(t *testing.T, pool []*cowGraph, step int) {
	t.Helper()
	for i, c := range pool {
		if got := adjWords(c.g); !slices.Equal(got, c.model) {
			t.Fatalf("step %d: graph %d rows differ from its own mutations", step, i)
		}
	}
	for i, a := range pool {
		for j, b := range pool {
			adds, removes := Diff(a.g, b.g)
			wantAdds, wantRemoves := xorDiff(a.g, b.g)
			if !reflect.DeepEqual(adds, wantAdds) || !reflect.DeepEqual(removes, wantRemoves) {
				t.Fatalf("step %d: Diff(%d, %d) = %v, %v; want %v, %v", step, i, j, adds, removes, wantAdds, wantRemoves)
			}
			if eq := len(wantAdds)+len(wantRemoves) == 0; a.g.Equal(b.g) != eq {
				t.Fatalf("step %d: Equal(%d, %d) = %v, want %v", step, i, j, !eq, eq)
			}
		}
	}
}

// FuzzDiffSharedPages chains seeded clones and mutations over a pool of at
// most five graphs, one script byte per step: op = b%5 acts on graph
// (b/5)%len(pool).
//
//	0  clone it (a clone of a clone once the pool holds clones)
//	1  flip a random pair on it (on a source after a clone, or a clone)
//	2  add then remove one pair, or remove then add: pages copied, no change
//	3  rebuild it with FromAdjWords, sharing nothing
//	4  flip a pair within one page
//
// After every step each graph's rows must equal its own replay (copy on
// write isolates it from every graph it shares pages with), and Diff and
// Equal of every pair must match a page-blind XOR of their AdjRows.
func FuzzDiffSharedPages(f *testing.F) {
	f.Add(int64(1), uint16(300), []byte{0, 1, 6, 0, 11, 2, 3, 4, 9, 5, 1})
	f.Add(int64(2), uint16(150), []byte{0, 0, 0, 6, 11, 16, 2, 7, 3, 8})
	f.Add(int64(3), uint16(64), []byte{1, 0, 1, 1, 0, 2, 4})
	f.Add(int64(4), uint16(520), []byte{0, 5, 6, 10, 14, 19, 2, 0, 8, 13})
	f.Fuzz(func(t *testing.T, seed int64, size uint16, script []byte) {
		n := 2 + int(size)%600
		if len(script) > 48 {
			script = script[:48]
		}
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(n, rng.Float64()/4, rng)
		pool := []*cowGraph{{g: g, model: adjWords(g)}}
		randomPair := func() (int, int) {
			u, v := 1+rng.Intn(n), 1+rng.Intn(n-1)
			if v >= u {
				v++
			}
			return u, v
		}
		for step, b := range script {
			c := pool[int(b/5)%len(pool)]
			switch b % 5 {
			case 0:
				cp := &cowGraph{g: c.g.Clone(), model: slices.Clone(c.model)}
				if len(pool) < 5 {
					pool = append(pool, cp)
				} else {
					pool[(int(b/5)+1)%len(pool)] = cp
				}
			case 1:
				u, v := randomPair()
				c.flip(t, u, v)
			case 2:
				u, v := randomPair()
				c.flip(t, u, v)
				c.flip(t, u, v)
			case 3:
				h, err := FromAdjWords(n, adjWords(c.g))
				if err != nil {
					t.Fatal(err)
				}
				c.g = h
			case 4:
				rows := 1 << g.shift
				lo := 1 + rng.Intn(n)/rows*rows
				span := min(rows, n-lo+1)
				if span < 2 {
					continue
				}
				u, v := lo+rng.Intn(span), lo+rng.Intn(span-1)
				if v >= u {
					v++
				}
				c.flip(t, u, v)
			}
			checkPages(t, pool, step)
		}
	})
}

// TestCloneConcurrentReaders: readers call Neighbors, AdjRow and Clone on a
// published graph, and mutate their own clones, while the writer mutates a
// chain of clones of it and the clones' sources. Under -race this checks
// that Clone's marking is race-free and that no write reaches a page the
// published graph holds.
func TestCloneConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pub := randomGraph(300, 0.05, rng)
	want := adjWords(pub)
	words := pub.Words()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				u := 1 + rng.Intn(pub.N())
				if !slices.Equal(pub.AdjRow(u), want[(u-1)*words:u*words]) {
					t.Errorf("reader %d: published row %d changed", seed, u)
					return
				}
				if len(pub.Neighbors(u)) != pub.Degree(u) {
					t.Errorf("reader %d: neighbours of %d disagree with its row", seed, u)
					return
				}
				own := pub.Clone()
				x, y := 1+rng.Intn(own.N()), 1+rng.Intn(own.N())
				if x == y {
					continue
				}
				if own.HasEdge(x, y) {
					_ = own.RemoveEdge(x, y)
				} else {
					_ = own.AddEdge(x, y)
				}
				adds, removes := Diff(pub, own)
				if len(adds)+len(removes) != 1 || own.Equal(pub) {
					t.Errorf("reader %d: clone flip of {%d,%d} diffs as %v, %v", seed, x, y, adds, removes)
					return
				}
			}
		}(int64(r))
	}
	child := pub.Clone()
	for i := 0; i < 60; i++ {
		flipRandom(t, child, rng)
		if i%10 == 9 {
			parent := child
			child = child.Clone()
			flipRandom(t, parent, rng) // a source written after its clone
		}
	}
	wg.Wait()
	if !slices.Equal(adjWords(pub), want) {
		t.Fatal("published graph changed")
	}
}
