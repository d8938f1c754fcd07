package main

import "testing"

// nested is one job: a root with two children, the first of which has
// a child of its own.
//
//	root  [0, 100)
//	  a   [10, 60)
//	    c [20, 30)
//	  b   [70, 90)
func nested() []span {
	return []span{
		{Name: residualName, Job: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", Job: 0, Parent: 0, Start: 10, End: 60},
		{Name: "c", Job: 0, Parent: 1, Start: 20, End: 30},
		{Name: "b", Job: 0, Parent: 0, Start: 70, End: 90},
	}
}

func TestSelfTimesNested(t *testing.T) {
	got := selfTimes(nested())
	want := []int64{30, 40, 10, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self times = %v, want %v", got, want)
		}
	}
}

func TestBreakdownsSumToWall(t *testing.T) {
	spans := nested()
	// A second job whose spans share names with the first.
	spans = append(spans,
		span{Name: residualName, Job: 1, Parent: -1, Start: 100, End: 150},
		span{Name: "a", Job: 1, Parent: 4, Start: 110, End: 140},
	)
	jobs, err := breakdowns(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(jobs))
	}
	if j := jobs[0]; j.Wall != 100 || j.Self[residualName] != 30 || j.Self["a"] != 40 || j.Self["c"] != 10 || j.Self["b"] != 20 {
		t.Fatalf("job 0 = %+v", j)
	}
	if j := jobs[1]; j.Wall != 50 || j.Self[residualName] != 20 || j.Self["a"] != 30 {
		t.Fatalf("job 1 = %+v", j)
	}
}

func TestBreakdownsRejectBrokenTrees(t *testing.T) {
	for name, mutate := range map[string]func([]span) []span{
		"unclosed":         func(s []span) []span { s[2].End = -1; return s },
		"cross-job":        func(s []span) []span { s[3].Job = 1; return s },
		"two roots":        func(s []span) []span { s[3].Parent = -1; return s },
		"children outlast": func(s []span) []span { s[3].End = 200; return s },
	} {
		_, err := breakdowns(mutate(nested()))
		if err == nil {
			t.Errorf("%s: breakdowns accepted a broken span tree", name)
		}
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin(residualName, -1)
	if err := tr.call("outer", root, func() error {
		return tr.call("inner", len(tr.spans)-1, func() error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	if got := len(tr.spans); got != 3 || tr.spans[2].Parent != 1 || tr.spans[1].Parent != 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if _, err := breakdowns(tr.spans); err != nil {
		t.Fatal(err)
	}
}
