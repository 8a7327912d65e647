package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 40},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "d", Parent: 1, Start: 12, End: 18},  // a's child: not root's
		{Name: "e", Parent: 0, Start: 50, End: -1},  // never closed
		{Name: "f", Parent: 0, Start: 40, End: 45},  // touches b's end
	}
	want := []time.Duration{100 - 30 - 10 - 5, 20 - 6, 20, 30, 6, 0, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1)
	child := tr.begin("child", root)
	time.Sleep(time.Millisecond)
	cd := tr.end(child)
	rd := tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[child].Parent != root {
		t.Fatalf("spans %+v", spans)
	}
	self := selfTimes(spans)
	if self[child] != cd || self[root] != rd-cd {
		t.Fatalf("self times %v, durations root %v child %v", self, rd, cd)
	}
}
