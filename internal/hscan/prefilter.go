package hscan

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/pigeonhole"
)

// Guide-filter geometry bounds. Fragments of at most 6 bases keep each
// fragment table at 4^width <= 4096 buckets, small enough to stay
// cache-resident; below 2 bases a fragment lists most guides in every
// bucket and filters nothing.
const (
	maxFragWidth = 6
	minFragWidth = 2
	// maxFragNs caps the N positions one guide fragment may hold; each
	// expands the fragment into four keys. A guide with more sends its
	// whole group to the all-guides compare, which bounds table memory
	// by guides x fragments x 4^maxFragNs.
	maxFragNs = 3
)

// prefilterGroup holds the patterns sharing one PAM orientation for
// ModePrefilter, plus the group's pigeonhole guide filter.
type prefilterGroup struct {
	pats      []anchoredPat
	pam       dna.Pattern
	pamLanes  []pamLane
	pamOff    int
	spacerOff int
	spacerLen int

	// Guide filter: bucket f<<bucketBits | key lists, in guide order,
	// the guides whose fragment f matches the window key exactly
	// (guides[start[b]:start[b+1]]). A fallback group has one zero-width
	// fragment (keyMask 0) whose single bucket lists every guide, so it
	// compares every guide at every PAM hit.
	frags      []fragment
	keyMask    uint64
	bucketBits uint
	start      []uint32
	guides     []int32
}

// pamLane is one PAM position that constrains the base (N positions
// are skipped): its offset from the PAM start and its IUPAC set.
type pamLane struct {
	off  int
	mask dna.Mask
}

// fragment locates one pigeonhole fragment inside the packed spacer
// window.
type fragment struct {
	shift uint   // 2 x the fragment's spacer offset
	lanes uint64 // the fragment's 2-bit lanes within the spacer word
}

// anchoredPat is the anchored-evaluation form of one pattern: the packed
// spacer word and the lane mask of concrete positions. Evaluating
// popcount((window XOR word) AND lanes) <= k is exactly the Hamming
// lattice automaton's accept condition at this alignment, computed
// bit-parallel.
type anchoredPat struct {
	word  uint64
	lanes uint64
	k     int
	code  int32
}

// buildPrefilter compiles the prefilter groups, one per distinct
// (PAM, orientation) pair — multiple PAM types (NGG plus NAG, say) scan
// in the same pass, each with its own literal filter, exactly as
// HyperScan compiles one FDR literal table across all patterns. All
// specs must share window geometry; spacers must be concrete-or-N (as
// with Cas-OFFinder's packed form).
func (e *Engine) buildPrefilter(specs []PatternSpec) error {
	siteLen := specs[0].SiteLen()
	spacerLen := len(specs[0].Spacer)
	if spacerLen == 0 || spacerLen > 32 {
		return fmt.Errorf("hscan: prefilter mode needs spacer length 1..32, got %d", spacerLen)
	}
	e.preSite = siteLen
	index := map[string]int{}
	for i, spec := range specs {
		if spec.SiteLen() != siteLen || len(spec.Spacer) != spacerLen {
			return fmt.Errorf("hscan: prefilter mode needs uniform window geometry (pattern %d differs)", i)
		}
		key := spec.PAM.String()
		if spec.PAMLeft {
			key = "<" + key
		}
		gi, ok := index[key]
		if !ok {
			gi = len(e.preGroups)
			index[key] = gi
			g := prefilterGroup{
				pam:       spec.PAM,
				pamOff:    spec.PAMOffset(),
				spacerOff: spec.SpacerOffset(),
				spacerLen: spacerLen,
			}
			for pi, m := range spec.PAM {
				if m != dna.MaskAny {
					g.pamLanes = append(g.pamLanes, pamLane{off: pi, mask: m})
				}
			}
			e.preGroups = append(e.preGroups, g)
		}
		g := &e.preGroups[gi]
		var p anchoredPat
		p.k = spec.K
		p.code = spec.Code
		for pos, mask := range spec.Spacer {
			switch mask.Count() {
			case 1:
				var b dna.Base
				for b = dna.A; b <= dna.T; b++ {
					if mask.Has(b) {
						break
					}
				}
				p.word |= uint64(b) << uint(2*pos)
				p.lanes |= 3 << uint(2*pos)
			case 4:
			default:
				return fmt.Errorf("hscan: prefilter mode supports concrete or N spacer positions only (pattern %d)", i)
			}
		}
		g.pats = append(g.pats, p)
	}
	for gi := range e.preGroups {
		e.preGroups[gi].buildGuideFilter()
	}
	return nil
}

// buildGuideFilter compiles the group's pigeonhole guide filter. With
// J >= K+1 fragments for the group's largest budget K, the radius
// floor(K/J) is zero for every guide, so a guide within budget at some
// window matches at least one fragment exactly (package pigeonhole) and
// the tables hold exact keys: a fragment's own bases, with every N
// position expanded into all four. J also grows until fragments are at
// most maxFragWidth bases, which keeps the tables small. When the
// fragments would shrink below minFragWidth, or a guide fragment holds
// more than maxFragNs N positions, the group keeps the all-guides
// compare: one zero-width fragment whose bucket lists every guide.
func (g *prefilterGroup) buildGuideFilter() {
	g.frags = []fragment{{}}
	g.keyMask, g.bucketBits = 0, 0
	g.start = []uint32{0, uint32(len(g.pats))}
	g.guides = make([]int32, len(g.pats))
	for gi := range g.guides {
		g.guides[gi] = int32(gi)
	}
	l := g.spacerLen
	kmax := 0
	for i := range g.pats {
		kmax = max(kmax, g.pats[i].k)
	}
	j := max(kmax+1, (l+maxFragWidth-1)/maxFragWidth)
	geo, ok := pigeonhole.New(l, j, l/j)
	if !ok || geo.Width < minFragWidth {
		return
	}
	nb := 1 << (2 * geo.Width) // buckets per fragment
	keyMask := uint64(nb) - 1
	frags := make([]fragment, geo.J)
	for f := range frags {
		shift := uint(2 * geo.Offset(f))
		frags[f] = fragment{shift: shift, lanes: keyMask << shift}
		for i := range g.pats {
			if bits.OnesCount64(frags[f].lanes&^g.pats[i].lanes) > 2*maxFragNs {
				return
			}
		}
	}
	// Counting sort into CSR: count per bucket, prefix-sum, then fill in
	// guide order so every bucket lists its guides ascending.
	start := make([]uint32, geo.J*nb+1)
	for f, fr := range frags {
		for i := range g.pats {
			fr.eachKey(&g.pats[i], keyMask, func(key int) { start[f*nb+key+1]++ })
		}
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	fill := append([]uint32(nil), start[:geo.J*nb]...)
	guides := make([]int32, start[geo.J*nb])
	for f, fr := range frags {
		for i := range g.pats {
			fr.eachKey(&g.pats[i], keyMask, func(key int) {
				guides[fill[f*nb+key]] = int32(i)
				fill[f*nb+key]++
			})
		}
	}
	g.frags, g.keyMask, g.bucketBits = frags, keyMask, uint(2*geo.Width)
	g.start, g.guides = start, guides
}

// eachKey calls fn with every bucket key pattern p is listed under for
// this fragment: its own bases, with each N position taking all four
// (every submask of the N positions' key bits).
func (fr fragment) eachKey(p *anchoredPat, keyMask uint64, fn func(key int)) {
	fixed := p.word >> fr.shift & keyMask
	free := ^(p.lanes >> fr.shift) & keyMask
	for v := free; ; v = (v - 1) & free {
		fn(int(fixed | v))
		if v == 0 {
			return
		}
	}
}

// scanPrefilter runs the two-stage kernel over anchors [lo, hi). The
// packed representation is required, so this mode consumes the
// chromosome rather than a bare sequence slice; parallel chunking wraps
// it with position ownership.
//
// Stage one reads the PAM test 32 anchors at a time from the packed
// genome: each group's constrained PAM positions become lane masks
// (dna.MatchLanes), ANDed per group and ORed across groups, and the set
// lanes are walked in ascending order. At each such anchor every group
// rechecks its PAM byte-wise, which also rejects ambiguous bases
// exactly (they pack as A), and drops windows with an ambiguous spacer
// base. Stage two (verifyHit) narrows the guides to compare.
//
// Matches append directly into out — the chunk's result batch — in
// position order, then group order, then guide order. The returned
// counts are PAM hits (anchors that reach stage two) and compares run,
// accumulated locally so the caller flushes them once per chunk.
//
//crisprlint:hotpath
func (e *Engine) scanPrefilter(c *genome.Chromosome, lo, hi int, out *[]automata.Report) (hits, verifs int64) {
	seq := c.Seq
	pk := c.Packed
	end := e.preSite - 1
	groups := e.preGroups
	for p0 := lo; p0 < hi; p0 += 32 {
		var cand uint64
		for gi := range groups {
			cand |= groups[gi].pamCandidates(pk, p0)
		}
		if n := hi - p0; n < 32 {
			cand &= 1<<uint(2*n) - 1
		}
		for ; cand != 0; cand &= cand - 1 {
			p := p0 + bits.TrailingZeros64(cand)/2
			for gi := range groups {
				g := &groups[gi]
				if !g.pamMatch(seq, p) {
					continue
				}
				codes, amb := pk.Window(p+g.spacerOff, g.spacerLen)
				if amb != 0 {
					continue
				}
				hits++
				verifs += g.verifyHit(codes, p+end, out)
			}
		}
	}
	return hits, verifs
}

// pamCandidates returns the lane mask (bit 2j for anchor p0+j) of the
// 32 anchors from p0 whose PAM codes satisfy every constrained position.
//
//crisprlint:hotpath
func (g *prefilterGroup) pamCandidates(pk *dna.Packed, p0 int) uint64 {
	m := uint64(0x5555555555555555)
	base := p0 + g.pamOff
	for _, pl := range g.pamLanes {
		m &= dna.MatchLanes(pk.Lanes(base+pl.off), pl.mask)
	}
	return m
}

// pamMatch is the exact per-anchor PAM test, rejecting ambiguous bases.
//
//crisprlint:hotpath
func (g *prefilterGroup) pamMatch(seq dna.Seq, p int) bool {
	pam := seq[p+g.pamOff:]
	pam = pam[:len(g.pam)]
	for i, m := range g.pam {
		if !m.Has(pam[i]) {
			return false
		}
	}
	return true
}

// verifyHit runs the anchored compare for the guides that can match
// the unambiguous spacer window codes, appending a report ending at end
// for each, and returns the number of compares run.
//
// It looks the window's J fragment keys up in the group's tables and
// compares only the guides listed. A guide listed under fragment f
// whose window also matched an earlier fragment exactly was already
// compared there, so it is skipped; each guide is compared at most once
// per hit. Fragment order is not guide order, so a hit's reports are
// sorted by guide index (held in End until the hit is done) before End
// is set; hits rarely report more than one guide.
//
//crisprlint:hotpath
func (g *prefilterGroup) verifyHit(codes uint64, end int, out *[]automata.Report) int64 {
	pats, frags, start, guides := g.pats, g.frags, g.start, g.guides
	keyMask, bucketBits := g.keyMask, g.bucketBits
	var n int64
	first := len(*out)
	for f := range frags {
		b := f<<bucketBits | int(codes>>frags[f].shift&keyMask)
		lo, hi := start[b], start[b+1]
		if lo == hi {
			continue
		}
		_ = guides[hi-1] // one check here lets prove elide guides[x]
		for x := lo; x < hi; x++ {
			gi := guides[x]
			pat := &pats[gi]
			d := diffLanes((codes ^ pat.word) & pat.lanes)
			if matchedEarlier(d, frags[:f]) {
				continue
			}
			n++
			if bits.OnesCount64(d) <= pat.k {
				//crisprlint:allow hotpath match reports are rare relative to PAM hits; the batch grows amortized
				*out = append(*out, automata.Report{Code: pat.code, End: int(gi)})
			}
		}
	}
	rs := (*out)[first:]
	if len(rs) > 1 {
		slices.SortFunc(rs, byEnd)
	}
	for i := range rs {
		rs[i].End = end
	}
	return n
}

// byEnd orders reports by End; verifyHit holds guide indices there, which
// are distinct within a hit, so the order is total.
func byEnd(a, b automata.Report) int { return a.End - b.End }

// matchedEarlier reports whether the per-lane difference d is zero on
// any of the given fragments, i.e. whether an earlier fragment's table
// already listed this guide for this window.
func matchedEarlier(d uint64, earlier []fragment) bool {
	for i := range earlier {
		if d&earlier[i].lanes == 0 {
			return true
		}
	}
	return false
}

// diffLanes spreads "these 2-bit lanes differ" into bit 2j per lane j.
func diffLanes(x uint64) uint64 { return (x | x>>1) & 0x5555555555555555 }
