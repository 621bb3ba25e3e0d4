package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/dedup"
)

// This file checks the property columns against a reference that keeps
// one map[string]string per live vertex, the layout the columns replaced,
// plus the order in which keys were first set.

// propModel is the reference: the properties of each live vertex by
// external ID, and the graph's key order.
type propModel struct {
	props map[int64]map[string]string
	keys  []string
}

func (m *propModel) clone() *propModel {
	c := &propModel{props: make(map[int64]map[string]string, len(m.props)), keys: slices.Clone(m.keys)}
	for id, p := range m.props {
		np := make(map[string]string, len(p))
		for k, v := range p {
			np[k] = v
		}
		c.props[id] = np
	}
	return c
}

// modelKeys is the key universe: "w" is first set part-way through a
// sequence, and "never" is never set.
var modelKeys = []string{"Name", "age", "w", "never"}

// check compares g with m: Property and PropertyOf for every live vertex
// and key, and the keys and values ForEachProperty yields, in m's order.
func (m *propModel) check(t *testing.T, step string, g *core.Graph) {
	t.Helper()
	if g.NumRealNodes() != len(m.props) {
		t.Fatalf("%s: %d live vertices, model has %d", step, g.NumRealNodes(), len(m.props))
	}
	for id, p := range m.props {
		r, ok := g.RealIndex(id)
		if !ok {
			t.Fatalf("%s: vertex %d missing", step, id)
		}
		for _, key := range modelKeys {
			want, wok := p[key]
			if got, gok := g.Property(r, key); got != want || gok != wok {
				t.Fatalf("%s: Property(%d, %s) = %q,%v, want %q,%v", step, id, key, got, gok, want, wok)
			}
			if got, gok := g.PropertyOf(id, key); got != want || gok != wok {
				t.Fatalf("%s: PropertyOf(%d, %s) = %q,%v, want %q,%v", step, id, key, got, gok, want, wok)
			}
		}
		var got, want []string
		g.ForEachProperty(r, func(k, v string) bool {
			got = append(got, k+"="+v)
			return true
		})
		for _, k := range m.keys {
			if v, ok := p[k]; ok {
				want = append(want, k+"="+v)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ForEachProperty(%d) = %v, want %v", step, id, got, want)
		}
	}
}

// checkView compares a view's PropertyOf with m.
func (m *propModel) checkView(t *testing.T, step string, f *core.Frozen) {
	t.Helper()
	if f.NumRealNodes() != len(m.props) {
		t.Fatalf("%s: view has %d vertices, model %d", step, f.NumRealNodes(), len(m.props))
	}
	for id, p := range m.props {
		for _, key := range modelKeys {
			want, wok := p[key]
			if got, gok := f.PropertyOf(id, key); got != want || gok != wok {
				t.Fatalf("%s: view PropertyOf(%d, %s) = %q,%v, want %q,%v", step, id, key, got, gok, want, wok)
			}
		}
	}
}

// TestPropertyColumnsMatchMapModel drives random sequences of vertex adds
// (duplicate IDs included), property sets (overwrites, empty values, a key
// first set mid-sequence), tombstone deletes, Compact, Clone, Expand,
// Dedup2Greedy, Freeze and FreezeFrom against the map-per-vertex model,
// checking the graph and every view after each step. Earlier views must
// not change when the graph does.
func TestPropertyColumnsMatchMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := core.New(core.CDUP)
		g.Symmetric = true
		m := &propModel{props: map[int64]map[string]string{}}
		set := func(id int64, key, val string) {
			if !slices.Contains(m.keys, key) {
				m.keys = append(m.keys, key)
			}
			m.props[id][key] = val
		}
		live := func() []int64 {
			ids := make([]int64, 0, len(m.props))
			for id := range m.props {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids
		}
		var (
			view      *core.Frozen // the last Freeze
			viewModel *propModel   // m when view was taken
			viewClean bool         // no vertex or property changed since
		)
		for step := 0; step < 120; step++ {
			name := fmt.Sprintf("seed %d step %d", seed, step)
			ids := live()
			switch op := rng.Intn(20); {
			case op < 6: // add, often an ID that exists or was deleted
				id := int64(1 + rng.Intn(30))
				r := g.AddRealNode(id)
				if _, ok := m.props[id]; !ok {
					m.props[id] = map[string]string{}
					viewClean = false
				}
				if g.RealID(r) != id {
					t.Fatalf("%s: AddRealNode(%d) returned slot of %d", name, id, g.RealID(r))
				}
			case op < 13 && len(ids) > 0: // set: overwrite, empty value, late key
				id := ids[rng.Intn(len(ids))]
				keys := modelKeys[:2]
				if step > 40 {
					keys = modelKeys[:3]
				}
				key := keys[rng.Intn(len(keys))]
				val := fmt.Sprintf("v%d", rng.Intn(4))
				if rng.Intn(5) == 0 {
					val = ""
				}
				r, _ := g.RealIndex(id)
				g.SetProperty(r, key, val)
				set(id, key, val)
				viewClean = false
			case op < 15 && len(ids) > 0: // tombstone delete
				id := ids[rng.Intn(len(ids))]
				if err := g.DeleteVertexID(id); err != nil {
					t.Fatal(err)
				}
				delete(m.props, id)
				viewClean = false
			case op == 15:
				g.Compact()
			case op == 16: // a clone is independent of its original
				c := g.Clone()
				m.check(t, name+" (clone)", c)
				if len(ids) > 0 {
					r, _ := c.RealIndex(ids[0])
					c.SetProperty(r, "Name", "clone-only")
					m.check(t, name+" (original after clone set)", g)
					set(ids[0], "Name", "clone-only")
					viewClean = false
				}
				g = c
			case op == 17:
				ng, err := g.Expand(0)
				if err != nil {
					t.Fatal(err)
				}
				g = ng
			case op == 18: // DEDUP-2 over a few fresh symmetric virtual nodes
				if len(ids) < 2 {
					break
				}
				for k := 0; k < 3; k++ {
					v := g.AddVirtualNode(1)
					seen := map[int64]bool{}
					for j := 0; j < 3; j++ {
						id := ids[rng.Intn(len(ids))]
						if !seen[id] {
							seen[id] = true
							r, _ := g.RealIndex(id)
							g.AddMember(v, r)
						}
					}
				}
				g.SortAdjacency()
				ng, _, err := dedup.Dedup2Greedy(g, dedup.Options{Seed: seed})
				if err != nil {
					t.Fatalf("%s: Dedup2Greedy: %v", name, err)
				}
				g = ng
			default: // Freeze, and FreezeFrom while nothing changed
				if view != nil && viewClean {
					m.checkView(t, name+" (FreezeFrom)", g.FreezeFrom(view, nil))
				}
				view, viewModel, viewClean = g.Freeze(), m.clone(), true
			}
			m.check(t, name, g)
			m.checkView(t, name+" (Freeze)", g.Freeze())
			if view != nil {
				viewModel.checkView(t, name+" (earlier view)", view)
			}
		}
	}
}
