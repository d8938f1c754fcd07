package ap

import (
	"fmt"
	"sort"

	"github.com/cap-repro/crisprscan/internal/automata"
)

// Placement is a chip-accurate packing of an automata network: each
// connected component (one guide-strand lattice) is assigned whole to a
// chip, because STE activation wires do not cross chip boundaries on
// the AP. This refines the aggregate-capacity placement PlaceStates
// performs: component granularity causes fragmentation, so a board can
// "fill" before its raw STE count does — the effect the paper's
// compilation discussion attributes to the AP toolchain.
type Placement struct {
	// Chips[i] lists component indices assigned to chip i of some pass;
	// chips are numbered across passes (chip / Device.Chips = pass).
	Chips [][]int
	// ChipLoad[i] is the STE count on chip i.
	ChipLoad []int
	// ComponentSizes are the packed component STE counts.
	ComponentSizes []int
	// Passes is the number of board configurations needed.
	Passes int
	// Fragmentation is 1 - (states / (usedChips * STEsPerChip)): the
	// capacity lost to component granularity.
	Fragmentation float64
}

// PlaceComponents packs the network's connected components onto chips
// with first-fit-decreasing, the classic bin-packing heuristic AP
// compilers use. It errors if any single component exceeds one chip
// (such a design cannot be placed at all).
func PlaceComponents(n *automata.NFA, dev Device) (*Placement, error) {
	if dev.STEsPerChip == 0 {
		dev = D480Board
	}
	sizes := n.ComponentSizes()
	p := &Placement{ComponentSizes: sizes}
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })

	total := 0
	for ci, idx := range order {
		size := sizes[idx]
		if size > dev.STEsPerChip {
			return nil, fmt.Errorf("ap: component %d needs %d STEs, more than one chip (%d)", idx, size, dev.STEsPerChip)
		}
		total += size
		placed := false
		// First fit over existing chips.
		for chip := range p.Chips {
			if p.ChipLoad[chip]+size <= dev.STEsPerChip {
				p.Chips[chip] = append(p.Chips[chip], idx)
				p.ChipLoad[chip] += size
				placed = true
				break
			}
		}
		if !placed {
			p.Chips = append(p.Chips, []int{idx})
			p.ChipLoad = append(p.ChipLoad, size)
		}
		_ = ci
	}
	used := len(p.Chips)
	if used == 0 {
		used = 1
	}
	p.Passes = (used + dev.Chips - 1) / dev.Chips
	p.Fragmentation = 1 - float64(total)/float64(used*dev.STEsPerChip)
	return p, nil
}

// UsedChips returns the number of chips holding at least one component.
func (p *Placement) UsedChips() int { return len(p.Chips) }

// MaxLoad returns the heaviest chip's STE count.
func (p *Placement) MaxLoad() int {
	max := 0
	for _, l := range p.ChipLoad {
		if l > max {
			max = l
		}
	}
	return max
}

// PlaceNetwork performs component-accurate placement for the model's
// compiled network and updates the model's pass count when packing is
// worse than the aggregate estimate. Returns the placement for
// inspection.
func (m *Model) PlaceNetwork() (*Placement, error) {
	p, err := PlaceComponents(m.NFA(), m.opt.Device)
	if err != nil {
		return nil, err
	}
	if p.Passes > m.res.Passes {
		m.res.Passes = p.Passes
		dev := m.opt.Device
		if dev.STEsPerChip == 0 {
			dev = D480Board
		}
		if p.UsedChips() <= dev.Chips {
			m.streams = dev.Chips / p.UsedChips()
		} else {
			m.streams = 1
		}
	}
	return p, nil
}
