package main

import (
	"bytes"
	"testing"
	"time"

	"kiff"
)

func testPopulation(t *testing.T, seed int64) *population {
	t.Helper()
	d, err := kiff.GeneratePreset("arxiv", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	return newPopulation(d, seed)
}

func TestOpSequenceDeterministic(t *testing.T) {
	gen := func(seed int64) []byte {
		return encodeOps(testPopulation(t, seed).genPhase(seed, 0, readWrite, 400, time.Second))
	}
	a, b := gen(7), gen(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different operation sequences")
	}
	if bytes.Equal(a, gen(8)) {
		t.Fatal("different seeds produced the same operation sequence")
	}
	p := testPopulation(t, 7)
	if bytes.Equal(encodeOps(p.genPhase(7, 0, readOnly, 400, time.Second)),
		encodeOps(p.genPhase(7, 1, readOnly, 400, time.Second))) {
		t.Fatal("different phases of one seed produced the same sequence")
	}
}

func TestOpSequenceShape(t *testing.T) {
	ops := testPopulation(t, 3).genPhase(3, 0, readWrite, 2000, 2*time.Second)
	var counts [numOpKinds]int
	for i, o := range ops {
		counts[o.Kind]++
		if o.Kind.isWrite() {
			if o.Lane != 1 {
				t.Fatalf("op %d (%v) on lane %d; writes belong on lane 1", i, o.Kind, o.Lane)
			}
		} else if o.Lane != 0 {
			t.Fatalf("read %d on lane %d in a read/write mix", i, o.Lane)
		}
		if i > 0 && o.Due < ops[i-1].Due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
	}
	if len(ops) != 4000 {
		t.Fatalf("%d ops, want 4000", len(ops))
	}
	writes := counts[opRating] + counts[opInsert]
	if writes < 320 || writes > 480 {
		t.Errorf("%d writes of 4000, want about 10%%", writes)
	}
	if counts[opNeighbors] < counts[opQuery] || counts[opQuery] < counts[opItems] {
		t.Errorf("read mix out of order: %v", counts)
	}
}
