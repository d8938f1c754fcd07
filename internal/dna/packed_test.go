package dna

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSeq(rng *rand.Rand, n int, ambRate float64) Seq {
	s := make(Seq, n)
	for i := range s {
		if rng.Float64() < ambRate {
			s[i] = BadBase
		} else {
			s[i] = Base(rng.Intn(4))
		}
	}
	return s
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := randomSeq(rng, rng.Intn(200), 0.1)
		p := Pack(s)
		if p.Len() != len(s) {
			t.Fatalf("Len = %d, want %d", p.Len(), len(s))
		}
		for i := range s {
			if p.Base(i) != s[i] {
				t.Fatalf("trial %d: Base(%d) = %v, want %v", trial, i, p.Base(i), s[i])
			}
			if p.Ambiguous(i) != (s[i] == BadBase) {
				t.Fatalf("trial %d: Ambiguous(%d) wrong", trial, i)
			}
		}
	}
}

func TestWindowAcrossWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomSeq(rng, 300, 0.05)
	p := Pack(s)
	for pos := 0; pos+23 <= len(s); pos++ {
		codes, amb := p.Window(pos, 23)
		for j := 0; j < 23; j++ {
			got := Base(codes >> uint(2*j) & 3)
			want := s[pos+j]
			if want == BadBase {
				if amb&(1<<uint(j)) == 0 {
					t.Fatalf("pos %d+%d: ambiguity bit missing", pos, j)
				}
				continue
			}
			if amb&(1<<uint(j)) != 0 {
				t.Fatalf("pos %d+%d: spurious ambiguity bit", pos, j)
			}
			if got != want {
				t.Fatalf("pos %d+%d: base %v, want %v", pos, j, got, want)
			}
		}
	}
}

func TestMismatchCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	genome := randomSeq(rng, 500, 0.02)
	packed := Pack(genome)
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(32)
		pos := rng.Intn(len(genome) - width)
		pat := randomSeq(rng, width, 0)
		want := 0
		for j := 0; j < width; j++ {
			if genome[pos+j] != pat[j] {
				want++
			}
		}
		got := packed.MismatchCount(pos, width, PackPatternWord(pat))
		if got != want {
			t.Fatalf("trial %d (pos=%d width=%d): got %d, want %d", trial, pos, width, got, want)
		}
	}
}

func TestPackPatternWordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ambiguous pattern")
		}
	}()
	seq, _ := ParseSeq("ACN")
	PackPatternWord(seq)
}

func TestKmer(t *testing.T) {
	s := MustParseSeq("ACGT")
	p := Pack(s)
	key, ok := p.Kmer(0, 4)
	if !ok {
		t.Fatal("kmer over concrete bases must be ok")
	}
	// A=0,C=1,G=2,T=3 -> 0b00011011 = 27
	if key != 27 {
		t.Errorf("kmer = %d, want 27", key)
	}
	want, ok2 := KmerOf(s)
	if !ok2 || want != key {
		t.Errorf("KmerOf = %d (%v), want %d", want, ok2, key)
	}
}

func TestKmerAmbiguity(t *testing.T) {
	seq, _ := ParseSeq("ACNGT")
	p := Pack(seq)
	if _, ok := p.Kmer(1, 3); ok {
		t.Error("kmer spanning an N must report !ok")
	}
	if _, ok := p.Kmer(2, 3); ok {
		t.Error("kmer starting at an N must report !ok")
	}
	if _, ok := p.Kmer(0, 2); !ok {
		t.Error("kmer avoiding the N must be ok")
	}
	if _, ok := KmerOf(seq); ok {
		t.Error("KmerOf with BadBase must report !ok")
	}
}

func TestKmerConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	genome := randomSeq(rng, 400, 0)
	packed := Pack(genome)
	f := func(rawPos uint16, rawW uint8) bool {
		width := 1 + int(rawW)%20
		pos := int(rawPos) % (len(genome) - width)
		k1, ok1 := packed.Kmer(pos, width)
		k2, ok2 := KmerOf(genome[pos : pos+width])
		return ok1 && ok2 && k1 == k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestMatchLanesAgainstBytes checks the word-parallel IUPAC test against
// a per-base Has for every mask, at every offset (including windows that
// run past the end, whose lanes read as A), with ambiguous bases reading
// as A in the code plane.
func TestMatchLanesAgainstBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomSeq(rng, 150, 0.05)
	p := Pack(s)
	for pos := 0; pos < len(s); pos++ {
		codes := p.Lanes(pos)
		for m := Mask(0); m <= MaskAny; m++ {
			got := MatchLanes(codes, m)
			if got&^laneLo != 0 {
				t.Fatalf("pos %d mask %v: odd bits set in %#x", pos, m, got)
			}
			for j := 0; j < 32; j++ {
				b := A // ambiguous and past-the-end bases read as A
				if pos+j < len(s) && s[pos+j] != BadBase {
					b = s[pos+j]
				}
				if want := m.Has(b); (got>>uint(2*j)&1 == 1) != want {
					t.Fatalf("pos %d lane %d mask %v: got %v, want %v", pos, j, m, !want, want)
				}
			}
		}
	}
}
