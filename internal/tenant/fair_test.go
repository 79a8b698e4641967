package tenant

import (
	"testing"
	"time"
)

func TestFairQueueWeightedShares(t *testing.T) {
	q := NewFairQueue[int]()
	// heavy has weight 2, light weight 1; both deeply backlogged.
	for i := 0; i < 30; i++ {
		q.Push("heavy", 2, i)
		q.Push("light", 1, 100+i)
	}
	counts := map[string]int{}
	for i := 0; i < 30; i++ {
		ten, _, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		counts[ten]++
	}
	// 30 grants over cycles of 3 (2 heavy + 1 light) => 20/10.
	if counts["heavy"] != 20 || counts["light"] != 10 {
		t.Fatalf("shares = %v, want heavy=20 light=10", counts)
	}
}

func TestFairQueueNoStarvation(t *testing.T) {
	q := NewFairQueue[int]()
	for i := 0; i < 1000; i++ {
		q.Push("flood", 1, i)
	}
	q.Push("victim", 1, -1)
	// The victim must be served within one full cycle.
	for i := 0; i < 2; i++ {
		ten, v, ok := q.Pop()
		if !ok {
			t.Fatal("unexpected empty")
		}
		if ten == "victim" {
			if v != -1 {
				t.Fatalf("victim item = %d", v)
			}
			return
		}
	}
	t.Fatal("victim starved past one round-robin cycle")
}

func TestFairQueueFIFOWithinTenant(t *testing.T) {
	q := NewFairQueue[int]()
	for i := 0; i < 5; i++ {
		q.Push("a", 1, i)
	}
	for want := 0; want < 5; want++ {
		_, v, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("pop = %d,%v want %d", v, ok, want)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestFairQueuePushFront(t *testing.T) {
	q := NewFairQueue[string]()
	q.Push("a", 1, "second")
	q.PushFront("a", 1, "first")
	_, v, _ := q.Pop()
	if v != "first" {
		t.Fatalf("pop = %q, want the PushFront item", v)
	}
}

func TestFairQueuePopNewestAndHeaviest(t *testing.T) {
	q := NewFairQueue[int]()
	q.Push("small", 1, 1)
	for i := 0; i < 4; i++ {
		q.Push("big", 1, i)
	}
	ten, depth, ok := q.Heaviest()
	if !ok || ten != "big" || depth != 4 {
		t.Fatalf("heaviest = %s/%d/%v, want big/4", ten, depth, ok)
	}
	v, ok := q.PopNewest("big")
	if !ok || v != 3 {
		t.Fatalf("PopNewest = %d,%v want 3", v, ok)
	}
	if q.Len() != 4 || q.TenantLen("big") != 3 {
		t.Fatalf("len = %d/%d", q.Len(), q.TenantLen("big"))
	}
	// Draining a tenant via PopNewest deactivates it.
	for i := 0; i < 3; i++ {
		if _, ok := q.PopNewest("big"); !ok {
			t.Fatalf("PopNewest %d failed", i)
		}
	}
	if _, ok := q.PopNewest("big"); ok {
		t.Fatal("PopNewest on empty tenant should fail")
	}
	ten, v2, ok := q.Pop()
	if !ok || ten != "small" || v2 != 1 {
		t.Fatalf("final pop = %s/%d/%v", ten, v2, ok)
	}
}

func TestFairQueueDeactivateKeepsCursorSane(t *testing.T) {
	q := NewFairQueue[int]()
	// Interleave pushes and pops across tenants that come and go, checking
	// every item is eventually served exactly once.
	seen := map[int]bool{}
	total := 0
	for round := 0; round < 10; round++ {
		for ti := 0; ti < 4; ti++ {
			name := string(rune('a' + ti))
			q.Push(name, ti+1, round*100+ti)
			total++
		}
		if round%2 == 1 {
			for i := 0; i < 3; i++ {
				if _, v, ok := q.Pop(); ok {
					if seen[v] {
						t.Fatalf("item %d served twice", v)
					}
					seen[v] = true
				}
			}
		}
	}
	for {
		_, v, ok := q.Pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("item %d served twice", v)
		}
		seen[v] = true
	}
	if len(seen) != total {
		t.Fatalf("served %d items, pushed %d", len(seen), total)
	}
}

func TestCoDelShedsUnderSustainedDelay(t *testing.T) {
	c := &CoDel{Target: 100 * time.Millisecond, Interval: time.Second}
	now := time.Unix(1700000000, 0)
	// Below target: never sheds.
	for i := 0; i < 100; i++ {
		if c.OnDequeue(now, 50*time.Millisecond) {
			t.Fatal("shed below target")
		}
		now = now.Add(10 * time.Millisecond)
	}
	// Above target but within the first interval: still no shed.
	if c.OnDequeue(now, 200*time.Millisecond) {
		t.Fatal("shed before interval elapsed")
	}
	sheds := 0
	for i := 0; i < 300; i++ {
		now = now.Add(10 * time.Millisecond)
		if c.OnDequeue(now, 200*time.Millisecond) {
			sheds++
		}
	}
	if sheds < 2 {
		t.Fatalf("sheds = %d, want >= 2 under 3s of sustained overload", sheds)
	}
	if !c.Dropping() {
		t.Fatal("controller should be in dropping state")
	}
	// Recovery: one below-target observation exits the dropping state.
	if c.OnDequeue(now, 10*time.Millisecond) {
		t.Fatal("shed on recovery observation")
	}
	if c.Dropping() {
		t.Fatal("controller should have left dropping state")
	}
}

func TestCoDelControlLawAccelerates(t *testing.T) {
	c := &CoDel{Target: 10 * time.Millisecond, Interval: time.Second}
	now := time.Unix(1700000000, 0)
	c.OnDequeue(now, 20*time.Millisecond) // arm
	var shedTimes []time.Time
	for i := 0; i < 4000 && len(shedTimes) < 4; i++ {
		now = now.Add(time.Millisecond)
		if c.OnDequeue(now, 20*time.Millisecond) {
			shedTimes = append(shedTimes, now)
		}
	}
	if len(shedTimes) < 4 {
		t.Fatalf("only %d sheds observed", len(shedTimes))
	}
	gap1 := shedTimes[1].Sub(shedTimes[0])
	gap3 := shedTimes[3].Sub(shedTimes[2])
	if gap3 >= gap1 {
		t.Fatalf("shed spacing must shrink: gap1=%v gap3=%v", gap1, gap3)
	}
}

func TestCoDelDisabled(t *testing.T) {
	var c CoDel
	now := time.Unix(1700000000, 0)
	for i := 0; i < 100; i++ {
		now = now.Add(time.Second)
		if c.OnDequeue(now, time.Hour) {
			t.Fatal("zero-value CoDel must never shed")
		}
	}
}
