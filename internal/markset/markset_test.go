package markset

import (
	"math"
	"math/rand"
	"testing"
)

func TestMarkHasReset(t *testing.T) {
	var s Set
	s.Reset(10)
	for i := int32(0); i < 10; i++ {
		if s.Has(i) {
			t.Fatalf("fresh set has %d", i)
		}
	}
	if !s.Mark(3) || s.Mark(3) {
		t.Fatal("Mark(3) must be fresh exactly once")
	}
	if !s.Has(3) || s.Has(4) {
		t.Fatal("Has disagrees with Mark")
	}
	s.Reset(10)
	if s.Has(3) {
		t.Fatal("Reset kept a mark")
	}
}

func TestGrowKeepsSetEmptyAndOldSlotsUsable(t *testing.T) {
	var s Set
	s.Reset(4)
	s.Mark(1)
	s.Reset(1000) // grow: new slots are zero, old ones carry a stale epoch
	for i := int32(0); i < 1000; i++ {
		if s.Has(i) {
			t.Fatalf("slot %d marked after growing Reset", i)
		}
	}
	s.Mark(999)
	s.Reset(4) // shrinking the covered range keeps the storage
	if s.Has(1) || !s.Mark(1) {
		t.Fatal("slot 1 not reusable after shrink")
	}
}

// TestEpochWrap drives the counter over the wrap-around and checks that
// marks left behind by the very first epochs do not come back to life.
func TestEpochWrap(t *testing.T) {
	var s Set
	s.Reset(8) // epoch 1
	s.Mark(5)
	s.Reset(8) // epoch 2
	s.Mark(6)
	s.SeedEpoch(math.MaxUint32 - 1)
	s.Reset(8) // MaxUint32
	if s.Has(5) || s.Has(6) {
		t.Fatal("stale mark visible before the wrap")
	}
	s.Mark(7)
	s.Reset(8) // wraps: stamps cleared, epoch 1 again
	for i := int32(0); i < 8; i++ {
		if s.Has(i) {
			t.Fatalf("slot %d marked after the wrap", i)
		}
	}
	s.Reset(8) // epoch 2
	if s.Has(6) {
		t.Fatal("mark from the first epoch 2 survived the wrap")
	}
}

// TestAgainstMap compares a long random sequence of operations with a hash
// set, across resets, growth and a wrap.
func TestAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Set
	s.SeedEpoch(math.MaxUint32 - 50)
	n := 16
	s.Reset(n)
	ref := map[int32]bool{}
	for step := 0; step < 20000; step++ {
		switch rng.Intn(20) {
		case 0:
			if rng.Intn(4) == 0 {
				n += rng.Intn(64)
			}
			s.Reset(n)
			ref = map[int32]bool{}
		default:
			i := int32(rng.Intn(n))
			if got, want := s.Has(i), ref[i]; got != want {
				t.Fatalf("step %d: Has(%d) = %v, want %v", step, i, got, want)
			}
			if got, want := s.Mark(i), !ref[i]; got != want {
				t.Fatalf("step %d: Mark(%d) = %v, want %v", step, i, got, want)
			}
			ref[i] = true
		}
	}
}

func TestResetDoesNotAllocateInSteadyState(t *testing.T) {
	var s Set
	s.Reset(1 << 12)
	if a := testing.AllocsPerRun(100, func() {
		s.Reset(1 << 12)
		s.Mark(17)
	}); a != 0 {
		t.Fatalf("steady-state Reset+Mark allocates %v times", a)
	}
}
