"""Tests for the x86 interpreter, mini-assembler, and kernels."""

import pytest

from repro.core.sadc import X86SadcCodec
from repro.core.samc import SamcCodec
from repro.isa.x86.interp import (
    EAX, EBX, ECX, EDX, ESI, ESP,
    X86Machine,
    X86MachineError,
)
from repro.memory.fetchsim import CompressedFetchPort
from repro.workloads.x86_kernels import (
    CC,
    JccTo,
    JmpTo,
    Label,
    X86_KERNELS,
    alu_ri8,
    alu_rr,
    assemble,
    dec,
    mov_r_mem,
    mov_ri,
    mov_rr,
    ret,
    run_x86_kernel,
)


def run_items(items, setup=None):
    machine = X86Machine(memory_size=1 << 16)
    machine.load_code(assemble(list(items)))
    if setup:
        setup(machine)
    machine.run(max_instructions=100_000)
    return machine


class TestAssembler:
    def test_label_resolution_forward_and_back(self):
        code = assemble([
            Label("start"),
            mov_ri(EAX, 1),
            JmpTo("end"),
            mov_ri(EAX, 2),
            Label("end"),
            ret(),
        ])
        machine = X86Machine(memory_size=1 << 16)
        machine.load_code(code)
        machine.run()
        assert machine.regs[EAX] == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            assemble([Label("x"), Label("x"), ret()])

    def test_out_of_range_branch_rejected(self):
        items = [JmpTo("far")] + [mov_ri(EAX, 0)] * 40 + [Label("far"), ret()]
        with pytest.raises(ValueError):
            assemble(items)


class TestSemantics:
    def test_mov_and_alu(self):
        m = run_items([
            mov_ri(EAX, 10),
            mov_ri(EBX, 3),
            alu_rr(0x29, EAX, EBX),  # sub eax, ebx
            ret(),
        ])
        assert m.regs[EAX] == 7

    def test_memory_roundtrip(self):
        def setup(machine):
            machine.write32(0x800, 0xDEADBEEF)
            machine.regs[ESI] = 0x800

        m = run_items([mov_r_mem(EDX, ESI), ret()], setup=setup)
        assert m.regs[EDX] == 0xDEADBEEF

    def test_flags_signed_compare(self):
        m = run_items([
            mov_ri(EAX, -5),
            alu_ri8(7, EAX, 3),          # cmp eax, 3
            JccTo(CC["l"], "less"),
            mov_ri(EBX, 0),
            JmpTo("end"),
            Label("less"),
            mov_ri(EBX, 1),
            Label("end"),
            ret(),
        ])
        assert m.regs[EBX] == 1

    def test_loop_with_dec(self):
        m = run_items([
            mov_ri(ECX, 5),
            mov_ri(EAX, 0),
            Label("loop"),
            alu_ri8(7, ECX, 0),
            JccTo(CC["le"], "done"),
            alu_rr(0x01, EAX, ECX),      # eax += ecx
            dec(ECX),
            JmpTo("loop"),
            Label("done"),
            ret(),
        ])
        assert m.regs[EAX] == 15

    def test_push_pop_stack(self):
        from repro.workloads.x86_kernels import X86Instruction

        m = run_items([
            mov_ri(EAX, 0x1234),
            X86Instruction(opcode=b"\x50"),  # push eax
            mov_ri(EAX, 0),
            X86Instruction(opcode=b"\x5b"),  # pop ebx
            ret(),
        ])
        assert m.regs[EBX] == 0x1234

    def test_ret_at_depth_zero_halts(self):
        m = run_items([ret()])
        assert m.halted

    def test_unsupported_sib_raises(self):
        machine = X86Machine(memory_size=1 << 16)
        machine.load_code(b"\x8b\x04\x24\xc3")  # mov eax, [esp]
        with pytest.raises(X86MachineError):
            machine.run()

    def test_budget_enforced(self):
        machine = X86Machine(memory_size=1 << 16)
        machine.load_code(assemble([Label("x"), JmpTo("x")]))
        with pytest.raises(X86MachineError):
            machine.run(max_instructions=50)

    def test_esp_initialised_high(self):
        machine = X86Machine(memory_size=1 << 16)
        assert machine.regs[ESP] > 0xF000


class TestKernels:
    @pytest.mark.parametrize("kernel", X86_KERNELS, ids=lambda k: k.name)
    def test_kernel_native(self, kernel):
        machine = run_x86_kernel(kernel)
        assert machine.halted
        assert kernel.check(machine), f"{kernel.name} wrong result"

    @pytest.mark.parametrize("kernel", X86_KERNELS, ids=lambda k: k.name)
    def test_kernel_through_compressed_memory(self, kernel):
        code = kernel.code()
        image = SamcCodec.for_bytes().compress(code)
        port = CompressedFetchPort(image, cache_size=256)
        machine = X86Machine(fetch_bytes=port.fetch_bytes)
        machine.load_code(code)
        kernel.setup(machine)
        machine.run()
        assert kernel.check(machine)
        assert port.refills > 0

    @pytest.mark.parametrize("kernel", X86_KERNELS, ids=lambda k: k.name)
    def test_kernel_through_sadc_compressed_memory(self, kernel):
        code = kernel.code()
        port = CompressedFetchPort(X86SadcCodec().compress(code), cache_size=256)
        machine = X86Machine(fetch_bytes=port.fetch_bytes)
        machine.load_code(code)
        kernel.setup(machine)
        machine.run()
        assert kernel.check(machine)
        assert port.refills > 0

    def test_compressed_equals_native(self):
        kernel = X86_KERNELS[0]
        native = run_x86_kernel(kernel)
        image = SamcCodec.for_bytes().compress(kernel.code())
        port = CompressedFetchPort(image, cache_size=256)
        machine = X86Machine(fetch_bytes=port.fetch_bytes)
        machine.load_code(kernel.code())
        kernel.setup(machine)
        machine.run()
        assert machine.regs == native.regs
