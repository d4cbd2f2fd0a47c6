package hostmm

import "fmt"

// Audit verifies the manager's internal invariants; tests call it after
// stress scenarios. It returns the first violation found, or nil.
//
// Invariants checked:
//  1. Every page on an LRU list is resident, and its list matches its kind
//     (anon lists hold ResidentAnon, file lists hold ResidentFile).
//  2. Per-cgroup resident counts equal the frames implied by the lists.
//  3. The frame pool usage equals the sum of cgroup resident counts.
//  4. Every allocated swap slot is owned by a page that records it, the
//     owner's state can legally hold a slot (SwappedOut, ResidentAnon in
//     the swap cache, or Emulated), and the owner-map size matches the
//     allocator's in-use count.
//  5. No page is charged twice (appears on two lists).
//  6. Every clean resident-anon page has a valid swap-cache backing: a
//     page without one holds the only copy of its content, so it must be
//     dirty or eviction would silently lose it.
func (m *Manager) Audit() error {
	totalResident := 0
	for _, cg := range m.cgroups {
		listed := 0
		check := func(l *pageList, wantState PageState) error {
			n := 0
			for pg := l.head; pg != nil; pg = pg.next {
				n++
				if !l.holds(pg) {
					return fmt.Errorf("%s: page %d has wrong list backref", l.name, pg.ID)
				}
				if pg.State != wantState {
					return fmt.Errorf("%s: page %d in state %s", l.name, pg.ID, pg.State)
				}
				if pg.Owner != cg {
					return fmt.Errorf("%s: page %d owned by %s", l.name, pg.ID, pg.Owner.Name)
				}
				if pg.State == ResidentAnon && !pg.Dirty && !m.swapCacheValid(pg) {
					return fmt.Errorf("%s: clean anon page %d has no swap-cache backing (slot %d)",
						l.name, pg.ID, pg.SwapSlot)
				}
			}
			if n != l.size {
				return fmt.Errorf("%s: size %d but %d nodes", l.name, l.size, n)
			}
			listed += n
			return nil
		}
		if err := check(&cg.lists[listActiveAnon], ResidentAnon); err != nil {
			return err
		}
		if err := check(&cg.lists[listInactiveAnon], ResidentAnon); err != nil {
			return err
		}
		if err := check(&cg.lists[listActiveFile], ResidentFile); err != nil {
			return err
		}
		if err := check(&cg.lists[listInactiveFile], ResidentFile); err != nil {
			return err
		}
		// lazy entries hold no frames; they are not counted.
		if listed != cg.resident {
			return fmt.Errorf("cgroup %s: %d listed resident pages but %d charged",
				cg.Name, listed, cg.resident)
		}
		if cg.pinned < 0 {
			return fmt.Errorf("cgroup %s: negative pin count %d", cg.Name, cg.pinned)
		}
		totalResident += cg.resident
	}
	if totalResident != m.Pool.Used() {
		return fmt.Errorf("pool uses %d frames but cgroups charge %d", m.Pool.Used(), totalResident)
	}
	// Slots in never-touched chunks are free and unowned, so walking the
	// slot table's allocated chunks covers every owned slot.
	owned := 0
	var slotErr error
	m.Swap.slots.Each(func(slot int64, e slotEntry) {
		pg := e.owner
		if pg == nil {
			return
		}
		owned++
		if slotErr != nil {
			return
		}
		if !e.used {
			slotErr = fmt.Errorf("slot %d owned by page %d but marked free", slot, pg.ID)
			return
		}
		if pg.SwapSlot != slot {
			slotErr = fmt.Errorf("slot %d owner page %d records slot %d", slot, pg.ID, pg.SwapSlot)
			return
		}
		switch pg.State {
		case SwappedOut, ResidentAnon, Emulated:
		default:
			slotErr = fmt.Errorf("slot %d owned by page %d in state %s", slot, pg.ID, pg.State)
		}
	})
	if slotErr != nil {
		return slotErr
	}
	if owned != m.Swap.inUse {
		return fmt.Errorf("swap allocator counts %d slots in use but owner table has %d",
			m.Swap.inUse, owned)
	}
	return nil
}
