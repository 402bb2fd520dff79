package main

import (
	"math"
	"testing"
	"time"
)

// handTree is one operation's spans with known boundaries (in ns):
//
//	op [0,100]
//	  setup [0,30]: graph.build [5,15], fssga.new [15,25]
//	  solve [30,90]: round [30,50], round [50,70] holding faults.advance
//	                 [55,60], election.check [70,80]
//	  verify [90,100]
func handTree() []span {
	s := func(parent int, name, detail string, start, end int) span {
		return span{Op: 1, Parent: parent, Name: name, Detail: detail, Start: time.Duration(start), End: time.Duration(end)}
	}
	return []span{
		0:  s(-1, "op", "", 0, 100),
		1:  s(0, "setup", "", 0, 30),
		2:  s(1, "graph.build", "", 5, 15),
		3:  s(1, "fssga.new", "", 15, 25),
		4:  s(0, "solve", "", 30, 90),
		5:  s(4, "fssga.round", "SyncRound", 30, 50),
		6:  s(4, "fssga.round", "SyncRound", 50, 70),
		7:  s(6, "faults.advance", "", 55, 60),
		8:  s(4, "election.check", "", 70, 80),
		9:  s(0, "verify", "", 90, 100),
		10: s(9, "oracle", "", 92, 99),
	}
}

func TestSelfTimes(t *testing.T) {
	want := map[string]time.Duration{
		"op":                    0,
		"setup":                 10,
		"graph.build":           10,
		"fssga.new":             10,
		"solve":                 10,
		"fssga.round/SyncRound": 35,
		"faults.advance":        5,
		"election.check":        10,
		"verify":                3,
		"oracle":                7,
	}
	spans := handTree()
	got := selfTimes(spans, 0, len(spans))
	if len(got) != len(want) {
		t.Fatalf("selfTimes keys = %v, want %v", got, want)
	}
	var sum time.Duration
	for k, w := range want {
		if got[k] != w {
			t.Errorf("self[%s] = %d, want %d", k, got[k], w)
		}
		sum += got[k]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %d, want the root's %d", sum, spans[0].dur())
	}
	if c := coverage(spans, 4, 0, len(spans)); math.Abs(c-50.0/60) > 1e-12 {
		t.Errorf("coverage(solve) = %g, want %g", c, 50.0/60)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(false)
	if i := tr.begin("op", ""); i != -1 || len(tr.spans) != 0 {
		t.Fatalf("a disabled tracer recorded a span")
	}
	tr.on = true
	op := tr.begin("op", "")
	a := tr.begin("solve", "")
	b := tr.begin("fssga.round", "SyncRound")
	tr.end(b)
	tr.record("graph.csr", tr.now(), tr.now())
	tr.end(a)
	tr.end(op)
	wantParent := []int{-1, 0, 1, 1}
	for i, p := range wantParent {
		if tr.spans[i].Parent != p {
			t.Errorf("span %d (%s) parent = %d, want %d", i, tr.spans[i].Name, tr.spans[i].Parent, p)
		}
		if tr.spans[i].End < tr.spans[i].Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
}
