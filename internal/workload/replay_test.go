package workload

import "testing"

// TestScenarioSeedReplayProperty: for every catalog scenario and a spread
// of seeds, the (scenario, seed) pair fully determines the run's inputs —
// the op stream and every session's closed-loop think draws replay
// identically. This is the property that makes contended runs comparable
// across reruns: only the interleaving may differ, never the offered
// load.
func TestScenarioSeedReplayProperty(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	base := Base{K: 18, Q: 30, Z: 0.3, L: 2}
	for _, sc := range Catalog() {
		for seed := int64(1); seed <= 5; seed++ {
			s1 := BuildSchedule(sc, base)
			s2 := BuildSchedule(sc, base)
			ops1, ops2 := s1.Stream(seed, ids), s2.Stream(seed, ids)
			if ops1.Len() != ops2.Len() {
				t.Fatalf("%s/seed %d: op counts %d vs %d", sc.Name(), seed, ops1.Len(), ops2.Len())
			}
			for i := 0; i < ops1.Len(); i++ {
				if ops1.At(i) != ops2.At(i) {
					t.Fatalf("%s/seed %d: op %d diverged: %+v vs %+v",
						sc.Name(), seed, i, ops1.At(i), ops2.At(i))
				}
			}
			for sess := 0; sess < 4; sess++ {
				t1 := NewThinker(seed+int64(sess), 2*s1.ThinkScale(sess))
				t2 := NewThinker(seed+int64(sess), 2*s2.ThinkScale(sess))
				for i := 0; i < 50; i++ {
					if t1.Next() != t2.Next() {
						t.Fatalf("%s/seed %d: session %d think draw %d diverged", sc.Name(), seed, sess, i)
					}
				}
			}
		}
	}
}
