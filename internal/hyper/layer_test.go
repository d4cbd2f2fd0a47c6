package hyper

import "testing"

// BenchmarkLayer reports hypervisor-layer costs, shaped like the hyper
// probes of the host-cost benchmark (perfbench/probes.go).
func BenchmarkLayer(b *testing.B) {
	// An op is building one host and one guest at the fig14 sizes of the
	// scaleup-alloc workload (8 GiB host, 2 GiB guest, both at scale
	// 0.125); B/op is what setting up the memory tables costs.
	b.Run("hyper/new_vm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewMachine(MachineConfig{Seed: 1, HostMemPages: 1 << 30 / 4096})
			m.NewVM(VMConfig{Name: "bench", MemPages: 256 << 20 / 4096, GuestAPF: true})
		}
	})
}
