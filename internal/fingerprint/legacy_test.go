// Frozen reference implementation of canonical fingerprinting.
//
// This file is the pre-bitset canonicalizer, kept verbatim as the
// differential oracle for the zero-alloc rewrite in fingerprint.go: the
// equivalence suite (differential_test.go) asserts the rewrite produces
// byte-identical digests and identical canonical orders across
// randomized graph shapes, and the golden corpus pins both against
// checked-in hex digests. Do not "improve" this file — its only job is
// to stay exactly what PR 3 shipped, so any behavioral drift in the
// live path fails loudly against it.
//
// The legacy path allocates freely (clone, per-round slices, per-record
// buffers); that cost is why it was replaced. It lives in a _test.go
// file, so only the package's tests compile it.
package fingerprint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	"joinopt/internal/catalog"
)

// LegacyOf returns the canonical fingerprint of q computed by the
// frozen reference implementation. Test use only.
func LegacyOf(q *catalog.Query) Fingerprint {
	f, _ := LegacyCanonical(q)
	return f
}

// LegacyCanonical returns the fingerprint and canonical relation order
// computed by the frozen reference implementation. Test use only.
func LegacyCanonical(q *catalog.Query) (Fingerprint, []catalog.RelID) {
	qc := q.Clone()
	qc.Normalize()
	g := buildLegacyGraph(qc)
	enc, ord := g.canonicalize()
	order := make([]catalog.RelID, len(ord))
	for i, v := range ord {
		order[i] = catalog.RelID(v)
	}
	return sha256.Sum256(enc), order
}

// LegacyCanonicalQuery returns the fingerprint, canonical order, and
// relabeled query computed by the frozen reference implementation.
// Test use only.
func LegacyCanonicalQuery(q *catalog.Query) (Fingerprint, []catalog.RelID, *catalog.Query) {
	f, order := LegacyCanonical(q)
	return f, order, Relabel(q, order)
}

// legacyHalfEdge is one predicate seen from one endpoint.
type legacyHalfEdge struct {
	to int
	// mySide/otherSide hash the endpoint-local statistics (distinct
	// count, histogram); sel hashes the join selectivity. Orientation
	// matters: a predicate with asymmetric distinct counts must
	// contribute differently to its two endpoints.
	mySide, otherSide uint64
	sel               uint64
}

type legacyGraph struct {
	q   *catalog.Query
	n   int
	adj [][]legacyHalfEdge
	// initial per-vertex colors from exact relation statistics.
	init []uint64
	// searchBudget bounds individualization-refinement: the number of
	// individualizations tried across the whole search. Each tied cell
	// always gets at least its first candidate, so canonicalization
	// terminates regardless; the budget only caps how exhaustively
	// highly symmetric queries are disambiguated.
	searchBudget int
}

func buildLegacyGraph(q *catalog.Query) *legacyGraph {
	n := len(q.Relations)
	g := &legacyGraph{q: q, n: n, adj: make([][]legacyHalfEdge, n), init: make([]uint64, n), searchBudget: irSearchBudget}
	for _, p := range q.Predicates {
		l, r := int(p.Left), int(p.Right)
		ls := sideHash(p.LeftDistinct, p.LeftHist)
		rs := sideHash(p.RightDistinct, p.RightHist)
		sel := mixFloat(fnvOffset, p.Selectivity)
		g.adj[l] = append(g.adj[l], legacyHalfEdge{to: r, mySide: ls, otherSide: rs, sel: sel})
		g.adj[r] = append(g.adj[r], legacyHalfEdge{to: l, mySide: rs, otherSide: ls, sel: sel})
	}
	for v, rel := range q.Relations {
		acc := fnvOffset
		acc = mix(acc, uint64(rel.Cardinality))
		sels := make([]uint64, 0, len(rel.Selections))
		for _, s := range rel.Selections {
			sels = append(sels, math.Float64bits(s.Selectivity))
		}
		sortU64(sels)
		acc = mix(acc, uint64(len(sels)))
		for _, s := range sels {
			acc = mix(acc, s)
		}
		g.init[v] = acc
	}
	return g
}

// refineStep computes one WL round: each color becomes a hash of
// itself and the sorted multiset of (edge statistics, neighbor color).
func (g *legacyGraph) refineStep(colors, out []uint64, scratch []uint64) {
	for v := 0; v < g.n; v++ {
		contrib := scratch[:0]
		for _, he := range g.adj[v] {
			h := fnvOffset
			h = mix(h, he.mySide)
			h = mix(h, he.otherSide)
			h = mix(h, he.sel)
			h = mix(h, colors[he.to])
			contrib = append(contrib, h)
		}
		sortU64(contrib)
		acc := mix(fnvOffset, colors[v])
		acc = mix(acc, uint64(len(contrib)))
		for _, c := range contrib {
			acc = mix(acc, c)
		}
		out[v] = acc
	}
}

// legacyClasses counts distinct colors.
func legacyClasses(colors []uint64) int {
	s := append([]uint64(nil), colors...)
	sortU64(s)
	k := 0
	for i, c := range s {
		if i == 0 || c != s[i-1] {
			k++
		}
	}
	return k
}

// refineToStable iterates refinement until the number of color classes
// stops growing (at most n rounds). colors is consumed; the returned
// slice is freshly allocated state.
func (g *legacyGraph) refineToStable(colors []uint64) []uint64 {
	cur := append([]uint64(nil), colors...)
	next := make([]uint64, g.n)
	maxDeg := 0
	for _, adj := range g.adj {
		if len(adj) > maxDeg {
			maxDeg = len(adj)
		}
	}
	scratch := make([]uint64, 0, maxDeg)
	k := legacyClasses(cur)
	for round := 0; round < g.n; round++ {
		g.refineStep(cur, next, scratch)
		nk := legacyClasses(next)
		cur, next = next, cur
		if nk == k {
			break
		}
		k = nk
	}
	return cur
}

// legacyFirstTiedCell returns the members of the first (by color value)
// color class with more than one vertex, or nil if the partition is
// discrete.
func legacyFirstTiedCell(colors []uint64) []int {
	type vc struct {
		v int
		c uint64
	}
	vs := make([]vc, len(colors))
	for v, c := range colors {
		vs[v] = vc{v, c}
	}
	sort.Slice(vs, func(a, b int) bool {
		if vs[a].c != vs[b].c {
			return vs[a].c < vs[b].c
		}
		return vs[a].v < vs[b].v
	})
	for i := 0; i < len(vs); {
		j := i
		for j < len(vs) && vs[j].c == vs[i].c {
			j++
		}
		if j-i > 1 {
			cell := make([]int, 0, j-i)
			for k := i; k < j; k++ {
				cell = append(cell, vs[k].v)
			}
			return cell
		}
		i = j
	}
	return nil
}

// legacyOrderFromDiscrete sorts vertices by their (all-distinct) colors.
func legacyOrderFromDiscrete(colors []uint64) []int {
	ord := make([]int, len(colors))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return colors[ord[a]] < colors[ord[b]] })
	return ord
}

// canonicalize produces the canonical encoding and relation order via
// individualization-refinement.
func (g *legacyGraph) canonicalize() ([]byte, []int) {
	budget := g.searchBudget
	return g.search(g.init, &budget)
}

func (g *legacyGraph) search(colors []uint64, budget *int) ([]byte, []int) {
	stable := g.refineToStable(colors)
	cell := legacyFirstTiedCell(stable)
	if cell == nil {
		ord := legacyOrderFromDiscrete(stable)
		return g.encode(ord), ord
	}
	var bestEnc []byte
	var bestOrd []int
	for _, v := range cell {
		if bestEnc != nil && *budget <= 0 {
			break
		}
		*budget--
		indiv := append([]uint64(nil), stable...)
		// Individualize v: give it a color derived from, but distinct
		// from, its cell color.
		indiv[v] = mix(mix(fnvOffset, indiv[v]), irIndivSalt)
		enc, ord := g.search(indiv, budget)
		if bestEnc == nil || bytes.Compare(enc, bestEnc) < 0 {
			bestEnc, bestOrd = enc, ord
		}
	}
	return bestEnc, bestOrd
}

// encode writes the exact query statistics under the given relation
// order: relations in order with cardinality and sorted selection
// selectivities, then predicates renumbered to canonical positions,
// sides oriented low-position-first, sorted bytewise.
func (g *legacyGraph) encode(ord []int) []byte {
	var buf bytes.Buffer
	buf.WriteString(encodingMagic)
	writeU64 := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	writeU64(uint64(g.n))
	writeU64(uint64(len(g.q.Predicates)))

	pos := make([]int, g.n)
	for i, v := range ord {
		pos[v] = i
	}
	for _, v := range ord {
		rel := &g.q.Relations[v]
		writeU64(uint64(rel.Cardinality))
		sels := make([]uint64, 0, len(rel.Selections))
		for _, s := range rel.Selections {
			sels = append(sels, math.Float64bits(s.Selectivity))
		}
		sortU64(sels)
		writeU64(uint64(len(sels)))
		for _, s := range sels {
			writeU64(s)
		}
	}

	recs := make([][]byte, 0, len(g.q.Predicates))
	for _, p := range g.q.Predicates {
		a, b := pos[p.Left], pos[p.Right]
		ad, bd := p.LeftDistinct, p.RightDistinct
		ah, bh := p.LeftHist, p.RightHist
		if a > b {
			a, b = b, a
			ad, bd = bd, ad
			ah, bh = bh, ah
		}
		var rb bytes.Buffer
		w := func(v uint64) {
			var x [8]byte
			binary.BigEndian.PutUint64(x[:], v)
			rb.Write(x[:])
		}
		w(uint64(a))
		w(uint64(b))
		w(math.Float64bits(p.Selectivity))
		w(math.Float64bits(ad))
		w(math.Float64bits(bd))
		for _, h := range []*catalog.Histogram{ah, bh} {
			if h == nil {
				w(0)
				continue
			}
			w(1)
			w(uint64(h.Domain))
			w(uint64(len(h.Counts)))
			for _, c := range h.Counts {
				w(math.Float64bits(c))
			}
		}
		recs = append(recs, rb.Bytes())
	}
	sort.Slice(recs, func(a, b int) bool { return bytes.Compare(recs[a], recs[b]) < 0 })
	for _, r := range recs {
		buf.Write(r)
	}
	return buf.Bytes()
}
