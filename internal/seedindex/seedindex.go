// Package seedindex implements the index-once, query-millions path: a
// persistent, versioned genome seed index (packed 2-bit sequence plus a
// k-mer seed table with per-seed posting lists) and the pigeonhole query
// engine that consumes it.
//
// The index inverts the cost model of every full-scan engine. Building
// is O(genome) and happens once, offline (cmd/genomeindex); a query for
// a guide set then splits each spacer into disjoint seed fragments,
// probes the table with every fragment variant inside the per-fragment
// mismatch radius, and verifies only the candidate loci the probes
// surface — so a scan touches O(candidates) genome positions instead of
// all of them. Candidates are always re-verified against the live
// sequence (PAM match, ambiguity skip, full-spacer Hamming count), which
// makes false positives structurally impossible; the pigeonhole split
// (see the pigeonhole guarantee below) makes false negatives impossible
// too, so the engine is hit-for-hit identical to the full-scan engines.
//
// Pigeonhole guarantee: a spacer of length L is covered by J =
// floor(L/S) disjoint fragments of S bases each, and every fragment is
// probed within Hamming radius r = floor(K/J), so every reportable
// window is found through at least one fragment (the geometry and its
// proof live in package pigeonhole, shared with the hyperscan
// prefilter kernel). Fragments that would enumerate more than the
// variant cap (deeply degenerate guides, or spacers shorter than one
// seed) fall back to a linear verify of every position for that
// pattern, preserving exactness.
package seedindex

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// DefaultSeedLen is the seed-table k-mer width used when the caller does
// not choose one: long enough that random probes are selective
// (4^10 ≈ 10^6 distinct keys), short enough that a 20 nt spacer yields
// two fragments and radius floor(k/2) stays enumerable for k ≤ 5.
const DefaultSeedLen = 10

// Seed-length bounds: a key must pack into a uint32 (2 bits per base),
// and seeds shorter than 4 would make posting lists uselessly dense.
const (
	MinSeedLen = 4
	MaxSeedLen = 15
)

// Index is a loaded (or freshly built) genome seed index: per
// chromosome, the packed 2-bit sequence and the sorted k-mer seed table.
// It is immutable after construction and safe to share across
// concurrent scans — the scanserve genome cache keeps one per reference.
type Index struct {
	// SeedLen is the k-mer width of the seed table.
	SeedLen int
	// Chroms holds the per-chromosome sections in genome order.
	Chroms []ChromIndex

	byName map[string]int
}

// ChromIndex is one chromosome's section of the index.
type ChromIndex struct {
	// Name is the chromosome identifier (FASTA record ID).
	Name string
	// SeqLen is the sequence length in bases.
	SeqLen int
	// SeqSHA is the SHA-256 of the canonical base-code sequence
	// (A=0,C=1,G=2,T=3, every ambiguous character as BadBase), the
	// stale-index detector: a reference edited in place no longer
	// matches and the index fails closed.
	SeqSHA [32]byte
	// Packed is the 2-bit packed sequence with ambiguity bitmap.
	Packed *dna.Packed

	table seedTable
}

// seedTable is the per-chromosome seed lookup structure: sorted unique
// k-mer keys, a starts array of len(keys)+1, and the concatenated
// posting lists (ascending seed start positions per key). The flat
// layout serializes directly and binary-searches without pointer
// chasing.
type seedTable struct {
	keys     []uint32
	starts   []uint32
	postings []uint32
}

// lookup returns the posting list (seed start positions) for key, or
// nil if the k-mer does not occur.
func (t *seedTable) lookup(key uint32) []uint32 {
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= key })
	if i == len(t.keys) || t.keys[i] != key {
		return nil
	}
	return t.postings[t.starts[i]:t.starts[i+1]]
}

// buildTable indexes every fully concrete seedLen-mer of seq by start
// position. K-mers touching an ambiguous base are skipped — sound,
// because engines never report windows containing ambiguous bases, so
// every reportable window's seed fragments are concrete and indexed.
// Output is deterministic: keys ascending, postings ascending per key.
func buildTable(seq dna.Seq, seedLen int) seedTable {
	type kv struct{ key, pos uint32 }
	var pairs []kv
	if len(seq) >= seedLen {
		pairs = make([]kv, 0, len(seq)-seedLen+1)
	}
	var key uint32
	mask := uint32(1)<<(2*uint(seedLen)) - 1
	valid := 0 // trailing concrete bases accumulated
	for i, b := range seq {
		if b > dna.T {
			valid = 0
			continue
		}
		key = (key<<2 | uint32(b)) & mask
		valid++
		if valid >= seedLen {
			pairs = append(pairs, kv{key: key, pos: uint32(i - seedLen + 1)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].key != pairs[j].key {
			return pairs[i].key < pairs[j].key
		}
		return pairs[i].pos < pairs[j].pos
	})
	var t seedTable
	t.starts = append(t.starts, 0)
	for _, p := range pairs {
		if len(t.keys) == 0 || t.keys[len(t.keys)-1] != p.key {
			t.keys = append(t.keys, p.key)
			t.starts = append(t.starts, uint32(len(t.postings)))
		}
		t.postings = append(t.postings, p.pos)
		t.starts[len(t.starts)-1] = uint32(len(t.postings))
	}
	return t
}

// shaChunk is the size of seqSHA's streaming buffer.
const shaChunk = 4096

// seqSHA hashes a base-code sequence, one byte per base. It streams
// the bytes through a fixed buffer, so the staleness guard costs no
// chromosome-sized allocation per query.
func seqSHA(seq dna.Seq) [32]byte {
	h := sha256.New()
	var buf [shaChunk]byte
	for len(seq) > 0 {
		n := min(len(seq), len(buf))
		for i, b := range seq[:n] {
			buf[i] = byte(b)
		}
		h.Write(buf[:n]) // a hash.Hash Write never returns an error
		seq = seq[n:]
	}
	return [32]byte(h.Sum(nil))
}

// Build constructs the full index for a genome. The result is
// deterministic: two builds of the same genome are byte-identical once
// encoded (no timestamps, sorted seed keys, genome-order chromosomes).
func Build(g *genome.Genome, seedLen int) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("seedindex: nil genome")
	}
	if seedLen == 0 {
		seedLen = DefaultSeedLen
	}
	if seedLen < MinSeedLen || seedLen > MaxSeedLen {
		return nil, fmt.Errorf("seedindex: seed length %d out of range %d..%d", seedLen, MinSeedLen, MaxSeedLen)
	}
	ix := &Index{SeedLen: seedLen, byName: make(map[string]int, len(g.Chroms))}
	for i := range g.Chroms {
		c := &g.Chroms[i]
		if _, dup := ix.byName[c.Name]; dup {
			return nil, fmt.Errorf("seedindex: duplicate chromosome %q", c.Name)
		}
		packed := c.Packed
		if packed == nil {
			packed = dna.Pack(c.Seq)
		}
		ix.byName[c.Name] = len(ix.Chroms)
		ix.Chroms = append(ix.Chroms, ChromIndex{
			Name:   c.Name,
			SeqLen: len(c.Seq),
			SeqSHA: seqSHA(c.Seq),
			Packed: packed,
			table:  buildTable(c.Seq, seedLen),
		})
	}
	return ix, nil
}

// chrom returns the section for name, or nil if the index lacks it.
func (ix *Index) chrom(name string) *ChromIndex {
	i, ok := ix.byName[name]
	if !ok {
		return nil
	}
	return &ix.Chroms[i]
}

// Keys returns the number of distinct seed keys in the section.
func (c *ChromIndex) Keys() int { return len(c.table.keys) }

// Postings returns the total posting-list length of the section.
func (c *ChromIndex) Postings() int { return len(c.table.postings) }

// ValidateGenome checks that the index exactly describes g: same
// chromosomes in the same order, same lengths, same content hashes. A
// mismatch means the FASTA changed after the index was built (or the
// index belongs to a different reference); scanning with such an index
// could silently miss sites, so callers must fail closed on error.
func (ix *Index) ValidateGenome(g *genome.Genome) error {
	if g == nil {
		return fmt.Errorf("seedindex: nil genome")
	}
	if len(g.Chroms) != len(ix.Chroms) {
		return fmt.Errorf("%w: index has %d chromosomes, genome has %d", ErrStale, len(ix.Chroms), len(g.Chroms))
	}
	for i := range g.Chroms {
		c, ci := &g.Chroms[i], &ix.Chroms[i]
		if c.Name != ci.Name {
			return fmt.Errorf("%w: chromosome %d is %q in index, %q in genome", ErrStale, i, ci.Name, c.Name)
		}
		if len(c.Seq) != ci.SeqLen {
			return fmt.Errorf("%w: chromosome %q length %d in index, %d in genome", ErrStale, c.Name, ci.SeqLen, len(c.Seq))
		}
		if seqSHA(c.Seq) != ci.SeqSHA {
			return fmt.Errorf("%w: chromosome %q content hash differs (reference edited after indexing?)", ErrStale, c.Name)
		}
	}
	return nil
}

// Genome materializes the reference the index was built from: the index
// is self-contained, so a scan can run without the original FASTA.
// Ambiguous positions come back as the canonical N — exactly how the
// FASTA parser canonicalizes them, so scan output is identical.
func (ix *Index) Genome() *genome.Genome {
	chroms := make([]genome.Chromosome, len(ix.Chroms))
	for i := range ix.Chroms {
		c := &ix.Chroms[i]
		chroms[i] = genome.Chromosome{Name: c.Name, Seq: c.Packed.Unpack(), Packed: c.Packed}
	}
	return genome.New(chroms...)
}
