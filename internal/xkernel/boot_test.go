package xkernel

import "testing"

// xcontainerPages is the paper's static X-Container reservation: 128 MB
// of 4 KiB pages (§4.5).
const xcontainerPages = 128 << 20 / 4096

func bootCycle(tb testing.TB, k *Kernel, pages int) {
	d, err := k.CreateDomain("c", DomXContainer, pages, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := k.DestroyDomain(d.ID); err != nil {
		tb.Fatal(err)
	}
}

// TestDomainBootAllocs pins boot and teardown at O(domains): the number
// of allocations in one CreateDomain + DestroyDomain cycle must not
// depend on the size of the memory reservation.
func TestDomainBootAllocs(t *testing.T) {
	allocs := func(pages int) float64 {
		k := New(Config{Mode: ModeXKernel})
		bootCycle(t, k, pages) // warm the domain table
		return testing.AllocsPerRun(1, func() {
			for range 20 {
				bootCycle(t, k, pages)
			}
		})
	}
	small, large := allocs(1024), allocs(131072)
	if small != large {
		t.Fatalf("20 boot cycles allocate %v times at 1,024 pages, %v at 131,072; want equal", small, large)
	}
}

func BenchmarkDomainBoot(b *testing.B) {
	k := New(Config{Mode: ModeXKernel})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bootCycle(b, k, xcontainerPages)
	}
}
