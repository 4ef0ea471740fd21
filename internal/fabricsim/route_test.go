package fabricsim

import (
	"sort"
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// routeHPR is the hosts per rack of the hand-built routing fixtures.
const routeHPR = 2

// newRouteCells returns n empty cells for feeding routeOutboxes directly.
func newRouteCells(n int) []*shardCell {
	cells := make([]*shardCell, n)
	for i := range cells {
		cells[i] = &shardCell{}
		cells[i].cell = i
	}
	return cells
}

// send appends a message from cell src to the first host of cell dst to
// src's outbox. Outboxes must be filled in delivery order, as prefetch
// fills them; id tags the message so the checks can tell messages apart.
func send(cells []*shardCell, src, dst int, deliver float64, id flow.ID) {
	c := cells[src]
	c.outbox = append(c.outbox, routedMsg{deliver: deliver, srcCell: src,
		msg: shardMsg{src: src * routeHPR, dst: dst * routeHPR, id: id}})
}

// routeAndCheck routes the cells' outboxes below horizon and checks the
// result against a reference. Each inbox must hold its unconsumed tail,
// then every routed message for the cell in a stable sort on (deliver,
// srcCell) of the outboxes taken in rack order. Each outbox must keep
// exactly its messages at or beyond the horizon, in order.
func routeAndCheck(t *testing.T, r *router, cells []*shardCell, horizon float64) {
	t.Helper()
	var routed []routedMsg
	wantOut := make([][]routedMsg, len(cells))
	for i, c := range cells {
		for _, m := range c.outbox {
			if m.deliver < horizon {
				routed = append(routed, m)
			} else {
				wantOut[i] = append(wantOut[i], m)
			}
		}
	}
	sort.SliceStable(routed, func(i, j int) bool {
		if routed[i].deliver != routed[j].deliver {
			return routed[i].deliver < routed[j].deliver
		}
		return routed[i].srcCell < routed[j].srcCell
	})
	wantIn := make([][]routedMsg, len(cells))
	for i, c := range cells {
		wantIn[i] = append(wantIn[i], c.inbox[c.inboxPos:]...)
	}
	for _, m := range routed {
		d := m.msg.dst / routeHPR
		wantIn[d] = append(wantIn[d], m)
	}

	r.routeOutboxes(cells, horizon)

	for i, c := range cells {
		if c.inboxPos != 0 {
			t.Errorf("cell %d: inboxPos %d after routing, want 0", i, c.inboxPos)
		}
		checkMsgs(t, "inbox", i, c.inbox, wantIn[i])
		checkMsgs(t, "outbox", i, c.outbox, wantOut[i])
	}
}

// checkMsgs fails t unless got equals want message for message.
func checkMsgs(t *testing.T, what string, cell int, got, want []routedMsg) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("cell %d %s: %d messages, want %d", cell, what, len(got), len(want))
		return
	}
	for k := range got {
		if got[k] != want[k] {
			t.Errorf("cell %d %s[%d]: id %d (deliver %g, src %d), want id %d (deliver %g, src %d)",
				cell, what, k, got[k].msg.id, got[k].deliver, got[k].srcCell,
				want[k].msg.id, want[k].deliver, want[k].srcCell)
			return
		}
	}
}

// TestRouteOutboxesOrder feeds routeOutboxes hand-built outboxes and
// checks every inbox against a reference stable sort on (deliver,
// srcCell). Real arrival times are random floats, so cross-source
// delivery ties almost never occur in a run and no digest exercises the
// srcCell tie-break.
func TestRouteOutboxesOrder(t *testing.T) {
	t.Run("equal-deliver-ties", func(t *testing.T) {
		cells := newRouteCells(4)
		// Cell 3 gets runs from cells 0, 1 and 2 that interleave in time
		// and tie at 1.0 and 2.0; cell 0 gets two equal-time messages
		// from cell 3 that must keep their outbox order.
		send(cells, 0, 3, 1.0, 1)
		send(cells, 0, 3, 2.0, 2)
		send(cells, 1, 3, 0.5, 3)
		send(cells, 1, 3, 1.0, 4)
		send(cells, 1, 3, 1.0, 5)
		send(cells, 1, 3, 2.0, 6)
		send(cells, 2, 3, 0.5, 7)
		send(cells, 2, 3, 2.0, 8)
		send(cells, 3, 0, 1.5, 9)
		send(cells, 3, 0, 1.5, 10)
		routeAndCheck(t, &router{hpr: routeHPR}, cells, 3)
	})
	t.Run("at-horizon", func(t *testing.T) {
		cells := newRouteCells(3)
		send(cells, 0, 1, 0.5, 1)
		send(cells, 0, 1, 1.0, 2) // exactly at the horizon: stays
		send(cells, 0, 2, 1.0, 3)
		send(cells, 2, 1, 0.75, 4)
		send(cells, 2, 1, 1.0, 5)
		r := &router{hpr: routeHPR}
		routeAndCheck(t, r, cells, 1.0)
		for _, c := range cells {
			for _, m := range c.outbox {
				if m.deliver != 1.0 {
					t.Errorf("outbox kept deliver %g, want only the horizon's 1.0", m.deliver)
				}
			}
		}
		if n := len(cells[0].outbox) + len(cells[2].outbox); n != 3 {
			t.Fatalf("%d messages at the horizon left in outboxes, want 3", n)
		}
		// The next barrier's horizon takes them.
		routeAndCheck(t, r, cells, 2.0)
	})
	t.Run("carried-inbox-tail", func(t *testing.T) {
		cells := newRouteCells(3)
		r := &router{hpr: routeHPR}
		send(cells, 0, 2, 0.1, 1)
		send(cells, 0, 2, 0.3, 2)
		send(cells, 1, 2, 0.2, 3)
		send(cells, 1, 2, 0.4, 4)
		send(cells, 1, 2, 1.5, 5)
		routeAndCheck(t, r, cells, 1.0)
		// The cell admits one message; the rest of the batch's deliveries
		// carry over, and the next barrier appends after them.
		cells[2].inboxPos = 1
		send(cells, 0, 2, 1.5, 6)
		send(cells, 2, 0, 1.2, 7)
		routeAndCheck(t, r, cells, 2.0)
		if got := cells[2].inbox[0].msg.id; got != 3 {
			t.Fatalf("carried inbox head is id %d, want 3", got)
		}
	})
	t.Run("empty-cell", func(t *testing.T) {
		cells := newRouteCells(3)
		// Cell 1 sends nothing and receives nothing.
		send(cells, 0, 2, 0.2, 1)
		send(cells, 2, 0, 0.1, 2)
		r := &router{hpr: routeHPR}
		routeAndCheck(t, r, cells, 1.0)
		if len(cells[1].inbox) != 0 || len(cells[1].outbox) != 0 {
			t.Fatalf("empty cell 1 holds %d inbox and %d outbox messages", len(cells[1].inbox), len(cells[1].outbox))
		}
		routeAndCheck(t, r, newRouteCells(1), 1.0)
	})
	t.Run("random-runs", func(t *testing.T) {
		// Many sources per destination, so the merge runs several levels;
		// times on a coarse grid, so ties are common.
		rng := stats.NewRNG(7)
		cells := newRouteCells(7)
		r := &router{hpr: routeHPR}
		id := flow.ID(0)
		genT := make([]float64, len(cells))
		for barrier := 1; barrier <= 6; barrier++ {
			for src := range cells {
				// Later barriers only generate later deliveries.
				genT[src] = max(genT[src], float64(barrier-1))
				for k := rng.Intn(12); k > 0; k-- {
					genT[src] += float64(rng.Intn(3)) * 0.125
					dst := rng.Intn(len(cells) - 1)
					if dst >= src {
						dst++
					}
					id++
					send(cells, src, dst, genT[src], id)
				}
			}
			for _, c := range cells {
				c.inboxPos = rng.Intn(len(c.inbox) + 1)
			}
			routeAndCheck(t, r, cells, float64(barrier))
		}
	})
}

// TestRouteOutboxesAllocFree pins that routing allocates nothing once
// the inboxes, outboxes and router scratch have grown to a barrier's size.
func TestRouteOutboxesAllocFree(t *testing.T) {
	cells := newRouteCells(5)
	r := &router{hpr: routeHPR}
	horizon := 0.0
	allocs := testing.AllocsPerRun(20, func() {
		for _, c := range cells {
			c.inboxPos = len(c.inbox)
		}
		for k := 0; k < 8; k++ {
			for src := range cells {
				send(cells, src, (src+1+k%4)%len(cells), horizon+float64(k)/8+float64(src)/100, flow.ID(k))
			}
		}
		horizon++
		r.routeOutboxes(cells, horizon)
	})
	if allocs != 0 {
		t.Fatalf("routeOutboxes allocated %.1f times per barrier, want 0", allocs)
	}
}
