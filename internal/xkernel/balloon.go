package xkernel

import "fmt"

// Ballooning is the memory-management mechanism §4.5 points to for
// lifting the static-allocation limitation of the prototype: a guest
// returns frames to (or reclaims frames from) the hypervisor at
// runtime, enabling dynamic sizing and over-subscription.

// BalloonAdjust grows (delta > 0) or shrinks (delta < 0) a domain's
// memory reservation by |delta| pages. Shrinking always succeeds (the
// guest's balloon driver has already freed the pages); growing fails
// when machine memory is exhausted.
func (k *Kernel) BalloonAdjust(d *Domain, delta int) error {
	switch {
	case delta == 0:
		return nil
	case delta > 0:
		if _, err := k.Frames.AllocN(d.Owner, delta); err != nil {
			return fmt.Errorf("xkernel: balloon up %q by %d: %w", d.Name, delta, err)
		}
		d.MemoryPages += delta
		return nil
	default:
		n := -delta
		if n > d.MemoryPages {
			return fmt.Errorf("xkernel: balloon down %q by %d: only %d pages held", d.Name, n, d.MemoryPages)
		}
		k.Frames.FreeTail(d.Owner, n)
		d.MemoryPages -= n
		return nil
	}
}
