package cache

import "testing"

func TestCarryForwardRekeysUnaffected(t *testing.T) {
	c := New(64)
	for node := int32(0); node < 6; node++ {
		put(t, c, key(1, node), node)
	}
	// Keep even nodes: odd ones play the "affected" role.
	carried := c.CarryForward(Delta{FromEpoch: 1, ToEpoch: 2}, func(k Key) bool { return k.Node%2 == 0 })
	if carried != 3 {
		t.Fatalf("carried = %d, want 3", carried)
	}
	for node := int32(0); node < 6; node++ {
		_, okNew := get(c, key(2, node))
		if want := node%2 == 0; okNew != want {
			t.Fatalf("node %d at epoch 2: present=%v want=%v", node, okNew, want)
		}
		if _, okOld := get(c, key(1, node)); okOld {
			t.Fatalf("node %d still reachable at epoch 1 after carry", node)
		}
	}
	st := c.Stats()
	if st.Carried != 3 || st.CarryDropped != 3 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 carried / 3 dropped / 3 entries", st)
	}
}

func TestCarryForwardFreshEntryWins(t *testing.T) {
	c := New(64)
	put(t, c, key(1, 7), "stale")
	put(t, c, key(2, 7), "fresh") // a query raced ahead and computed at epoch 2
	carried := c.CarryForward(Delta{FromEpoch: 1, ToEpoch: 2}, func(Key) bool { return true })
	if carried != 0 {
		t.Fatalf("carried = %d, want 0 (target key taken)", carried)
	}
	v, ok := get(c, key(2, 7))
	if !ok || v != "fresh" {
		t.Fatalf("epoch-2 entry = %v/%v, want the fresh computation", v, ok)
	}
	if st := c.Stats(); st.CarryDropped != 1 {
		t.Fatalf("stats = %+v, want the stale candidate counted dropped", st)
	}
}

func TestCarryForwardNilKeepDropsEverything(t *testing.T) {
	c := New(64)
	for node := int32(0); node < 4; node++ {
		put(t, c, key(3, node), node)
	}
	if carried := c.CarryForward(Delta{FromEpoch: 3, ToEpoch: 4}, nil); carried != 0 {
		t.Fatalf("nil keep carried %d entries", carried)
	}
	if st := c.Stats(); st.Entries != 0 || st.CarryDropped != 4 {
		t.Fatalf("stats = %+v, want empty cache with 4 carry-drops", st)
	}
}

func TestCarryForwardLeavesOtherEpochsForSweep(t *testing.T) {
	c := New(64)
	put(t, c, key(1, 1), "ancient")
	put(t, c, key(5, 2), "current")
	c.CarryForward(Delta{FromEpoch: 5, ToEpoch: 6}, func(Key) bool { return true })
	// The epoch-1 entry is not a FromEpoch candidate: untouched, awaiting
	// Sweep.
	if _, ok := get(c, key(1, 1)); !ok {
		t.Fatal("non-candidate epoch was touched by CarryForward")
	}
	if _, ok := get(c, key(6, 2)); !ok {
		t.Fatal("candidate was not carried to the new epoch")
	}
}

// TestSweepAfterCarryKeepsCarriedEntries is the cache-level half of the
// sweep-ordering contract: carry first, then Sweep(new) — the sweep must
// see carried entries already stamped with the new epoch and only drop
// genuinely superseded ones.
func TestSweepAfterCarryKeepsCarriedEntries(t *testing.T) {
	c := New(64)
	put(t, c, key(1, 1), "old-old") // superseded long ago
	put(t, c, key(5, 2), "keep")
	put(t, c, key(5, 3), "drop")
	c.CarryForward(Delta{FromEpoch: 5, ToEpoch: 6}, func(k Key) bool { return k.Node == 2 })
	removed := c.Sweep(6)
	if removed != 1 {
		t.Fatalf("sweep removed %d, want 1 (only the ancient entry remains to reclaim)", removed)
	}
	if _, ok := get(c, key(6, 2)); !ok {
		t.Fatal("sweep after carry dropped a just-carried entry")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stats = %+v, want exactly the carried entry", st)
	}
}

// Re-keying must stay within one shard: the hash deliberately ignores the
// epoch. This would fail (entry unreachable at the new epoch) if Epoch
// were ever mixed back into Key.hash.
func TestEpochNotInShardHash(t *testing.T) {
	for e := uint64(0); e < 32; e++ {
		a := key(e, 9).hash()
		b := key(e+1, 9).hash()
		if a != b {
			t.Fatalf("hash differs across epochs (%d vs %d): re-keyed entries would change shard", e, e+1)
		}
	}
}
