package core

import (
	"bytes"
	"fmt"
	"testing"

	"xcontainers/internal/arch"
	"xcontainers/internal/fs"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/syscalls"
)

func xcPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform(PlatformConfig{
		Kind: runtimes.XContainer, Cloud: runtimes.LocalCluster, FastToolstack: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pausableProgram runs half its getpid loop, then a second loop —
// giving the test a natural mid-execution point to checkpoint by
// bounding the instruction budget.
func pausableProgram() *arch.Text {
	a := arch.NewAssembler(arch.UserTextBase)
	a.Loop(50, func(b *arch.Assembler) { b.SyscallN(uint32(syscalls.Getpid)) })
	a.Loop(50, func(b *arch.Assembler) { b.SyscallN(uint32(syscalls.Getuid)) })
	a.Hlt()
	return a.MustAssemble()
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	src := xcPlatform(t)
	inst, err := src.Boot(Image{Name: "ck", Program: pausableProgram()})
	if err != nil {
		t.Fatal(err)
	}
	// Run partway: enough to execute the first loop and get it patched.
	_, _ = inst.Run(200) // budget exhaustion expected mid-program
	if inst.Proc.CPU.Halted {
		t.Fatal("test premise broken: program finished too early")
	}
	preStats := inst.Stats()
	if preStats.ABOMPatches == 0 {
		t.Fatal("expected ABOM patches before checkpoint")
	}

	ck, err := src.Checkpoint(inst)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}

	dst := xcPlatform(t)
	restored, err := dst.Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}
	// Resumes where it stopped.
	if restored.Proc.CPU.RIP != inst.Proc.CPU.RIP {
		t.Fatalf("rip = %#x, want %#x", restored.Proc.CPU.RIP, inst.Proc.CPU.RIP)
	}
	if restored.Proc.CPU.Regs != inst.Proc.CPU.Regs {
		t.Fatal("registers differ after restore")
	}
	// Patched text travelled with the checkpoint: byte-identical.
	if string(restored.Proc.CPU.Text.Bytes()) != string(inst.Proc.CPU.Text.Bytes()) {
		t.Fatal("text (with ABOM patches) not preserved")
	}
	// Run to completion on the destination.
	if _, err := restored.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if !restored.Proc.CPU.Halted {
		t.Fatal("restored program did not finish")
	}
	// The first loop's site was patched pre-migration, so the
	// destination hypervisor must see at most the second loop's single
	// trap — no re-patching of migrated sites.
	if got := dst.Runtime().Hyper.Stats.SyscallsForwarded; got > 1 {
		t.Errorf("destination forwarded %d syscalls; patched sites must not re-trap", got)
	}
}

func TestMigrateEndToEnd(t *testing.T) {
	src, dst := xcPlatform(t), xcPlatform(t)
	inst, err := src.Boot(Image{Name: "mig", Program: pausableProgram()})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = inst.Run(300)
	moved, err := Migrate(src, inst, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Source side released its domain.
	if src.Runtime().Hyper.Domains() != 0 {
		t.Errorf("source still holds %d domains", src.Runtime().Hyper.Domains())
	}
	if dst.Runtime().Hyper.Domains() != 1 {
		t.Errorf("destination holds %d domains, want 1", dst.Runtime().Hyper.Domains())
	}
	if _, err := moved.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if !moved.Proc.CPU.Halted {
		t.Fatal("migrated program did not finish")
	}
}

// TestCheckpointBytesDeterministic: one instance state encodes to one
// blob. Files, descriptors, pipes and stack words all sit in maps at
// run time, so the checkpoint must fix their order itself; two
// checkpoints of the same state, each encoded twice, must agree.
func TestCheckpointBytesDeterministic(t *testing.T) {
	src := xcPlatform(t)
	inst, err := src.Boot(Image{Name: "det", Program: pausableProgram()})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = inst.Run(200)
	fds := inst.Proc.OS.FDs
	for i := 0; i < 8; i++ {
		path := fmt.Sprintf("/state/%d", i)
		inst.Container.Svc.FS.Create(path, i, 0644)
		if _, err := fds.Open(path); err != nil {
			t.Fatal(err)
		}
		fds.NewPipe(16 + i)
	}
	if _, err := fds.Dup(1); err != nil {
		t.Fatal(err)
	}
	if err := fds.Close(0); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		inst.Proc.CPU.Stack.Store(arch.UserStackTop-8-i*arch.PageSize, i+1)
	}
	var first []byte
	for i := 0; i < 4; i++ {
		ck, err := src.Checkpoint(inst)
		if err != nil {
			t.Fatal(err)
		}
		if len(ck.FS.Files) < 9 || len(ck.FDTable.Pipes) != 8 || len(ck.Stack) != 8 {
			t.Fatalf("test premise broken: %d files, %d pipes, %d stack words",
				len(ck.FS.Files), len(ck.FDTable.Pipes), len(ck.Stack))
		}
		for j := 0; j < 2; j++ {
			blob, err := ck.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = blob
			} else if !bytes.Equal(blob, first) {
				t.Fatalf("checkpoint %d, encoding %d differs from the first", i, j)
			}
		}
	}
}

func TestCheckpointPreservesFilesystem(t *testing.T) {
	src := xcPlatform(t)
	inst, err := src.Boot(Image{Name: "fs", Program: pausableProgram()})
	if err != nil {
		t.Fatal(err)
	}
	inst.Container.Svc.FS.Create("/state/counter", 2, 0644)
	ck, err := src.Checkpoint(inst)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := xcPlatform(t).Restore(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Container.Svc.FS.Exists("/state/counter") {
		t.Fatal("file lost in migration")
	}
	if n, _ := restored.Container.Svc.FS.Size("/state/counter"); n != 2 {
		t.Fatalf("file size = %d", n)
	}
}

// TestRestoreRejectsMalformedSnapshots: a decoded checkpoint comes from
// outside the process, so restore must return an error for state that
// would later panic or corrupt the descriptor table, and must leave the
// destination platform with no instance booted.
func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	src := xcPlatform(t)
	inst, err := src.Boot(Image{Name: "bad", Program: pausableProgram()})
	if err != nil {
		t.Fatal(err)
	}
	inst.Container.Svc.FS.Create("/f", 10, 0644)
	if _, err := inst.Proc.OS.FDs.Open("/f"); err != nil {
		t.Fatal(err)
	}
	inst.Proc.OS.FDs.NewPipe(16)
	ck, err := src.Checkpoint(inst)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	fdOf := func(ck *Checkpoint, kind fs.FDKind) *fs.FDSnapshot {
		for i := range ck.FDTable.FDs {
			if e := &ck.FDTable.FDs[i]; e.Kind == kind {
				return e
			}
		}
		t.Fatalf("checkpoint has no descriptor of kind %d", kind)
		return nil
	}
	for name, corrupt := range map[string]func(*Checkpoint){
		"negative file size": func(ck *Checkpoint) {
			for i := range ck.FS.Files {
				if ck.FS.Files[i].Path == "/f" {
					ck.FS.Files[i].Size = -1
				}
			}
		},
		"file listed twice":   func(ck *Checkpoint) { ck.FS.Files = append(ck.FS.Files, ck.FS.Files[0]) },
		"negative offset":     func(ck *Checkpoint) { fdOf(ck, fs.FDFile).Offset = -5 },
		"negative pipe fill":  func(ck *Checkpoint) { ck.FDTable.Pipes[0].Buffered = -1 },
		"overfull pipe":       func(ck *Checkpoint) { ck.FDTable.Pipes[0].Buffered = 17 },
		"unknown pipe":        func(ck *Checkpoint) { fdOf(ck, fs.FDPipeRead).PipeID = 7 },
		"pipe end with no id": func(ck *Checkpoint) { fdOf(ck, fs.FDPipeWrite).PipeID = -1 },
		"file naming a pipe":  func(ck *Checkpoint) { fdOf(ck, fs.FDFile).PipeID = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			bad, err := DecodeCheckpoint(blob)
			if err != nil {
				t.Fatal(err)
			}
			corrupt(bad)
			dst := xcPlatform(t)
			if _, err := dst.Restore(bad); err == nil {
				t.Fatal("malformed checkpoint restored")
			}
			if n := dst.Runtime().Hyper.Domains(); n != 0 {
				t.Fatalf("rejected restore left %d domains booted", n)
			}
		})
	}
	// The untouched blob still restores.
	good, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xcPlatform(t).Restore(good); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRequiresXContainer(t *testing.T) {
	p, err := NewPlatform(PlatformConfig{Kind: runtimes.Docker, Cloud: runtimes.LocalCluster})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := p.Boot(Image{Name: "d", Program: pausableProgram()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(inst); err == nil {
		t.Fatal("checkpoint of a Docker container must fail (the §3.3 contrast)")
	}
	if _, err := p.Restore(&Checkpoint{}); err == nil {
		t.Fatal("restore onto Docker must fail")
	}
}

func TestDecodeCheckpointGarbage(t *testing.T) {
	if _, err := DecodeCheckpoint([]byte("not a checkpoint")); err == nil {
		t.Fatal("garbage must not decode")
	}
}
