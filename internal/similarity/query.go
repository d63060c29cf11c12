// Query-pivot scoring: placing an external profile — one that is not a
// user of the indexed population, such as a /query request — against
// that population's users. It is the query-side form of the BatchMetric
// kernels and uses the same per-metric formulas (the count metrics'
// finish functions, cosineGather, Adamic–Adar's adamicTerm stamp).
//
// A query arrives with its candidates already counted: the counting
// phase that found them binned the query into the item profiles, so it
// knows |q ∩ v| for every candidate v. The count metrics and binary
// cosine finish from that count alone; only the metrics that weigh the
// shared items — weighted cosine and Adamic–Adar — scatter the query
// once into a sparse.Scratch and gather each candidate over its own
// profile. Shared IDs are visited in ascending order as in the pairwise
// merge, so a query score is bit-identical to merging the query against
// the candidate.
//
// The scatter domain is bounded by the source's item count, never by the
// query's largest ID: IDs at or beyond NumItems are rated by nobody, so
// they are not scattered (an external profile naming item 4294967295
// must not size a 16 GB accumulator). They still count where the metric
// reads the query's own shape — |q| for Jaccard and Dice, ‖q‖ for cosine.
package similarity

import (
	"kiff/internal/sparse"
)

// QuerySource is the read surface a query pivot scores against: user
// profiles, the item-profile inverted index and the item domain. Both
// *dataset.Dataset and *dataset.View satisfy it.
type QuerySource interface {
	NumItems() int
	User(u uint32) sparse.Vector
	Item(i uint32) []uint32
}

// QueryMetric is an optional Metric extension for scoring an external
// profile against a QuerySource's users through a QueryPivot. Every
// built-in metric implements it.
type QueryMetric interface {
	Metric
	// scatterQuery records the query-side terms the metric's score needs
	// and scatters q's in-domain IDs in into p's scratch if it gathers.
	scatterQuery(p *QueryPivot, q sparse.Vector, in sparse.Vector)
	// scoreQuery scores the query against profile v, which shares
	// common items with it.
	scoreQuery(p *QueryPivot, v sparse.Vector, common int) float64
}

// QueryPivot scores one external query profile against many users of a
// QuerySource: Begin prepares (and, where the metric gathers, scatters)
// the query once, Score scores one candidate. A QueryPivot owns mutable scratch memory, so it must stay
// confined to one goroutine at a time; it is reusable across queries,
// sources and metrics, and its scratch grows as larger item domains
// come along.
type QueryPivot struct {
	scratch sparse.Scratch
	src     QuerySource
	metric  QueryMetric
	// qlen is |q|, out-of-domain IDs included (Jaccard, Dice).
	qlen int
	// norm is ‖q‖, out-of-domain IDs included, and binary reports a
	// weightless query (cosine).
	norm   float64
	binary bool
}

// Begin binds the pivot to src and metric m and scatters q, which must
// be a valid profile (sparse.Vector.Validate).
func (p *QueryPivot) Begin(m QueryMetric, src QuerySource, q sparse.Vector) {
	p.src, p.metric = src, m
	p.qlen = q.Len()
	// IDs are ascending, so the in-domain IDs are a prefix.
	cut, numItems := len(q.IDs), src.NumItems()
	for cut > 0 && int(q.IDs[cut-1]) >= numItems {
		cut--
	}
	in := sparse.Vector{IDs: q.IDs[:cut]}
	if q.Weights != nil {
		in.Weights = q.Weights[:cut]
	}
	m.scatterQuery(p, q, in)
}

// Score returns the similarity of the query and user v, given common =
// |q ∩ v|: the shared-item count the counting phase found for v.
func (p *QueryPivot) Score(v uint32, common int) float64 {
	return p.metric.scoreQuery(p, p.src.User(v), common)
}

// --- per-metric query forms ------------------------------------------

func (Cosine) scatterQuery(p *QueryPivot, q, in sparse.Vector) {
	p.norm = sparse.Norm(q)
	p.binary = q.IsBinary()
	if p.binary {
		p.scratch.StampOnes(in)
	} else {
		p.scratch.Stamp(in)
	}
}

func (Cosine) scoreQuery(p *QueryPivot, v sparse.Vector, common int) float64 {
	nv := sparse.Norm(v)
	if p.norm == 0 || nv == 0 {
		return 0
	}
	if p.binary && v.IsBinary() {
		// The dot of two binary profiles is their shared count.
		return float64(common) / (p.norm * nv)
	}
	return cosineGather(&p.scratch, p.binary, v) / (p.norm * nv)
}

// scoreCount finishes a count metric from the shared count.
func scoreCount(p *QueryPivot, v sparse.Vector, common int, finish func(common, lenU, lenV int) float64) float64 {
	if common == 0 {
		return 0
	}
	return finish(common, p.qlen, v.Len())
}

// The count metrics read nothing but |q|, which Begin records.
func (Jaccard) scatterQuery(*QueryPivot, sparse.Vector, sparse.Vector) {}
func (Jaccard) scoreQuery(p *QueryPivot, v sparse.Vector, common int) float64 {
	return scoreCount(p, v, common, jaccardFinish)
}

func (Dice) scatterQuery(*QueryPivot, sparse.Vector, sparse.Vector) {}
func (Dice) scoreQuery(p *QueryPivot, v sparse.Vector, common int) float64 {
	return scoreCount(p, v, common, diceFinish)
}

func (Overlap) scatterQuery(*QueryPivot, sparse.Vector, sparse.Vector) {}
func (Overlap) scoreQuery(p *QueryPivot, v sparse.Vector, common int) float64 {
	return scoreCount(p, v, common, overlapFinish)
}

// Adamic–Adar stamps each in-domain query item with its 1/ln|IPi| term,
// read from the source's own item profiles: on a shard that is the
// shard-local popularity, which is why sharded Adamic–Adar answers are
// approximate.
func (AdamicAdar) scatterQuery(p *QueryPivot, _, in sparse.Vector) {
	if len(in.IDs) == 0 {
		p.scratch.Begin(0)
		return
	}
	p.scratch.Begin(int(in.IDs[len(in.IDs)-1]) + 1)
	for _, id := range in.IDs {
		p.scratch.Set(id, adamicTerm(len(p.src.Item(id))))
	}
}

func (AdamicAdar) scoreQuery(p *QueryPivot, v sparse.Vector, _ int) float64 {
	s, _ := p.scratch.SumCommon(v)
	return s
}
