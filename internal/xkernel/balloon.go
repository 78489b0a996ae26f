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
		frames, err := k.Frames.AllocN(d.Owner, delta)
		if err != nil {
			return fmt.Errorf("xkernel: balloon up %q by %d: %w", d.Name, delta, err)
		}
		d.Frames = append(d.Frames, frames...)
		d.MemoryPages += delta
		return nil
	default:
		n := -delta
		if n > len(d.Frames) {
			return fmt.Errorf("xkernel: balloon down %q by %d: only %d pages held", d.Name, n, len(d.Frames))
		}
		victim := d.Frames[len(d.Frames)-n:]
		d.Frames = d.Frames[:len(d.Frames)-n]
		k.Frames.FreeAll(victim)
		d.MemoryPages -= n
		return nil
	}
}
