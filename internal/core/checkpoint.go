package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"xcontainers/internal/arch"
	"xcontainers/internal/cycles"
	"xcontainers/internal/fs"
	"xcontainers/internal/libos"
	"xcontainers/internal/runtimes"
)

// Checkpoint/restore and live migration: §3.3 lists these among the
// mature Xen-ecosystem technologies X-Containers inherit "which are
// hard to implement with traditional containers". A checkpoint captures
// the whole instance — architectural CPU state, the text segment
// *including any ABOM patches already applied*, the filesystem, and the
// descriptor table — as a portable byte blob; Restore materializes it
// on any X-Container platform, which is exactly a live migration when
// the target is a different host.

// Checkpoint is the serializable frozen state of one instance.
type Checkpoint struct {
	ImageName string
	VCPUs     int
	MemoryMB  int

	// Architectural state.
	Regs    [arch.NumRegs]uint64
	RIP     uint64
	Stack   []arch.StackWord
	Halted  bool
	Blocked bool

	// Text with patches applied in place.
	TextBase  uint64
	TextBytes []byte

	// Kernel-visible process and filesystem state.
	FDTable  fs.TableSnapshot
	FS       fs.FSSnapshot
	PIDPages int

	// Accounting carried across the migration.
	ClockCycles   uint64
	Instructions  uint64
	RawSyscalls   uint64
	VsyscallCalls uint64
	LibOSConfig   libos.Config
}

// Checkpoint freezes a (typically halted or quiesced) instance.
func (p *Platform) Checkpoint(inst *Instance) (*Checkpoint, error) {
	if p.rt.Cfg.Kind != runtimes.XContainer {
		return nil, fmt.Errorf("core: checkpoint requires an X-Container platform, have %v", p.rt.Cfg.Kind)
	}
	cpu := inst.Proc.CPU
	ck := &Checkpoint{
		ImageName:     inst.Image.Name,
		VCPUs:         inst.Container.Dom.VCPUs,
		MemoryMB:      inst.Image.MemoryMB,
		Regs:          cpu.Regs,
		RIP:           cpu.RIP,
		Stack:         cpu.Stack.Snapshot(),
		Halted:        cpu.Halted,
		Blocked:       cpu.Blocked,
		TextBase:      cpu.Text.Base,
		TextBytes:     cpu.Text.Bytes(),
		FDTable:       inst.Proc.OS.FDs.Snapshot(),
		FS:            inst.Container.Svc.FS.Snapshot(),
		PIDPages:      inst.Proc.OS.Pages,
		ClockCycles:   uint64(inst.Clock.Now()),
		Instructions:  cpu.Counters.Instructions,
		RawSyscalls:   cpu.Counters.RawSyscalls,
		VsyscallCalls: cpu.Counters.VsyscallCalls,
		LibOSConfig:   inst.Container.LibOS.Config,
	}
	return ck, nil
}

// Encode serializes the checkpoint for transport.
func (ck *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, fmt.Errorf("core: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint parses a serialized checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	return &ck, nil
}

// Restore materializes a checkpoint on this platform — live migration
// when p is a different host than the checkpoint's origin. The restored
// instance resumes exactly where the original stopped: ABOM patches are
// already in its text, so previously-converted call sites stay
// function calls without re-trapping.
func (p *Platform) Restore(ck *Checkpoint) (*Instance, error) {
	if p.rt.Cfg.Kind != runtimes.XContainer {
		return nil, fmt.Errorf("core: restore requires an X-Container platform, have %v", p.rt.Cfg.Kind)
	}
	text := arch.NewText(ck.TextBase, ck.TextBytes)
	cfg := ck.LibOSConfig
	inst, err := p.Boot(Image{
		Name:        ck.ImageName,
		Program:     text,
		VCPUs:       ck.VCPUs,
		MemoryMB:    ck.MemoryMB,
		LibOSConfig: &cfg,
	})
	if err != nil {
		return nil, err
	}
	// Rebuild kernel-visible state; a malformed snapshot undoes the boot.
	if err := errors.Join(
		inst.Container.Svc.FS.RestoreSnapshot(ck.FS),
		inst.Proc.OS.FDs.RestoreSnapshot(ck.FDTable),
	); err != nil {
		return nil, errors.Join(fmt.Errorf("core: restore: %w", err), p.Destroy(inst))
	}
	inst.Proc.OS.Pages = ck.PIDPages

	// Rebuild architectural state.
	cpu := inst.Proc.CPU
	cpu.Regs = ck.Regs
	cpu.RIP = ck.RIP
	cpu.Stack.LoadSnapshot(ck.Stack)
	cpu.Halted = ck.Halted
	cpu.Blocked = ck.Blocked
	cpu.Counters.Instructions = ck.Instructions
	cpu.Counters.RawSyscalls = ck.RawSyscalls
	cpu.Counters.VsyscallCalls = ck.VsyscallCalls

	// Migration downtime: transfer + reconstruction, modeled as the
	// LibOS boot plus one page-copy pass.
	inst.Clock.Advance(cycles.Cycles(len(ck.TextBytes)/arch.PageSize+1) * 2000)
	return inst, nil
}

// Migrate is checkpoint + transport + restore in one call, returning
// the resumed instance on the destination platform.
func Migrate(src *Platform, inst *Instance, dst *Platform) (*Instance, error) {
	ck, err := src.Checkpoint(inst)
	if err != nil {
		return nil, err
	}
	blob, err := ck.Encode()
	if err != nil {
		return nil, err
	}
	if err := src.Destroy(inst); err != nil {
		return nil, err
	}
	decoded, err := DecodeCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	return dst.Restore(decoded)
}
