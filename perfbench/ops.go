package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"strconv"
	"time"

	"kiff"
)

// opKind is one request type of the traffic mix.
type opKind uint8

const (
	opNeighbors  opKind = iota // GET /neighbors/{u}
	opQuery                    // POST /query, exact, k = 20
	opItems                    // POST /query with want=items
	opRating                   // POST /ratings, one rating
	opInsert                   // POST /users
	opCheckpoint               // POST /checkpoint
	numOpKinds
)

var opNames = [numOpKinds]string{"neighbors", "query", "items", "rating", "insert", "checkpoint"}

func (k opKind) String() string { return opNames[k] }
func (k opKind) isRead() bool   { return k <= opItems }
func (k opKind) isWrite() bool  { return k == opRating || k == opInsert }

// op is one scheduled request. Due is its send time as an offset from
// the start of its phase; Lane is the connection that carries it.
type op struct {
	Kind    opKind
	Lane    int
	Due     time.Duration
	User    uint32
	Item    uint32
	Rating  float64
	Profile kiff.Profile
	Body    []byte // HTTP request body, prepared before the phase starts
}

// queryK is the k of every profile query, the graph's k.
const queryK = 20

// mix is a traffic mix: shares of the read kinds among reads, the share
// of writes among all requests, and how writes split into single ratings
// and inserts.
type mix struct {
	writeShare  float64 // of all requests
	insertShare float64 // of writes; the rest are single ratings
}

var (
	readOnly  = mix{}
	readWrite = mix{writeShare: 0.10, insertShare: 0.20}
	writeOnly = mix{writeShare: 1, insertShare: 0.20}
)

// read kinds: 70 % neighbors, 25 % exact query, 5 % items.
func pickRead(r *rand.Rand) opKind {
	switch x := r.Float64(); {
	case x < 0.70:
		return opNeighbors
	case x < 0.95:
		return opQuery
	default:
		return opItems
	}
}

// population draws users by zipfian popularity (s = 1.1) over the
// fixture's original users with a non-empty profile; the popularity
// order is a seeded shuffle, so popular users are spread over the ID
// range.
type population struct {
	d    *kiff.Dataset
	perm []uint32
}

func newPopulation(d *kiff.Dataset, seed int64) *population {
	r := rand.New(rand.NewSource(seed))
	var perm []uint32
	for _, u := range r.Perm(d.NumUsers()) {
		if d.User(uint32(u)).Len() > 0 {
			perm = append(perm, uint32(u))
		}
	}
	return &population{d: d, perm: perm}
}

// zipfShift flattens the head of the popularity law, P(rank k) ∝
// (k + zipfShift)^-1.1: the most popular user draws about 1 % of the
// requests and the top hundred a third, so a run's cost does not hinge
// on the profile of one seed-chosen user.
const zipfShift = 20

func (p *population) zipf(r *rand.Rand) *rand.Zipf {
	return rand.NewZipf(r, 1.1, zipfShift, uint64(len(p.perm)-1))
}

// genPhase returns the seeded operation sequence of one phase: requests
// evenly spaced at rate per second for dur, drawn from m. Reads and
// writes go on separate lanes when the mix has both (writes then run one
// at a time on lane 1); a read-only mix alternates both lanes. The same
// (seed, phase) always gives the same sequence.
func (p *population) genPhase(seed int64, phase int, m mix, rate float64, dur time.Duration) []op {
	r := rand.New(rand.NewSource(seed*7919 + int64(phase)))
	z := p.zipf(r)
	user := func() uint32 { return p.perm[z.Uint64()] }
	n := int(rate * dur.Seconds())
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		var o op
		if r.Float64() < m.writeShare {
			o.Lane = 1
			if r.Float64() < m.insertShare {
				o.Kind = opInsert
				o.Profile = p.d.User(user())
			} else {
				o.Kind = opRating
				o.User = user()
				donor := p.d.User(user())
				o.Item = donor.IDs[r.Intn(len(donor.IDs))]
				o.Rating = float64(1 + r.Intn(5))
			}
		} else {
			o.Kind = pickRead(r)
			switch o.Kind {
			case opNeighbors:
				o.User = user()
			default:
				o.Profile = p.d.User(user())
			}
			if m.writeShare == 0 {
				o.Lane = i % 2
			}
		}
		o.Due = time.Duration(float64(i) / rate * float64(time.Second))
		o.Body = body(&o)
		ops = append(ops, o)
	}
	return ops
}

type profileJSON map[uint32]float64

func toJSON(p kiff.Profile) profileJSON {
	out := make(profileJSON, p.Len())
	for i, id := range p.IDs {
		out[id] = p.Weight(i)
	}
	return out
}

// body encodes the HTTP request body of o (nil for GETs).
func body(o *op) []byte {
	var v any
	switch o.Kind {
	case opQuery:
		v = map[string]any{"profile": toJSON(o.Profile), "k": queryK}
	case opItems:
		v = map[string]any{"profile": toJSON(o.Profile), "k": queryK, "want": "items"}
	case opRating:
		v = map[string]any{"user": o.User, "item": o.Item, "rating": o.Rating}
	case opInsert:
		v = map[string]any{"profile": toJSON(o.Profile)}
	default:
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of numbers always encode
	}
	return b
}

// path is the request path of o.
func (o *op) path() string {
	switch o.Kind {
	case opNeighbors:
		return "/neighbors/" + strconv.FormatUint(uint64(o.User), 10)
	case opQuery, opItems:
		return "/query"
	case opRating:
		return "/ratings"
	case opInsert:
		return "/users"
	default:
		return "/checkpoint"
	}
}

// encodeOps serializes a sequence to bytes; two sequences are the same
// exactly when their encodings are equal.
func encodeOps(ops []op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		b.WriteByte(byte(o.Kind))
		b.WriteByte(byte(o.Lane))
		b.Write(binary.AppendVarint(nil, int64(o.Due)))
		b.Write(binary.AppendUvarint(nil, uint64(o.User)))
		b.Write(binary.AppendUvarint(nil, uint64(o.Item)))
		b.WriteString(o.path())
		b.Write(o.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}
