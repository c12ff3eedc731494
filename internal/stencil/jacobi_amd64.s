#include "textflag.h"

// func jacobiRowAVX2(out, up, dn, left, right []float64) int
//
// Four cells a pass: acc = up; acc += dn; acc += left; acc += right;
// acc *= 0.25. Every operation keeps acc as its first source, as the
// scalar loop keeps its register, so even a NaN's payload is the scalar
// loop's.
TEXT ·jacobiRowAVX2(SB), NOSPLIT, $0-128
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ up_base+24(FP), SI
	MOVQ dn_base+48(FP), R8
	MOVQ left_base+72(FP), R9
	MOVQ right_base+96(FP), R10
	ANDQ $~3, CX
	MOVQ CX, ret+120(FP)
	SHLQ $3, CX // bytes in the prefix
	MOVQ $0x3fd0000000000000, AX // 0.25
	MOVQ AX, X4
	VBROADCASTSD X4, Y4
	XORQ BX, BX

loop:
	CMPQ BX, CX
	JAE  done
	VMOVUPD (SI)(BX*1), Y0
	VADDPD  (R8)(BX*1), Y0, Y0
	VADDPD  (R9)(BX*1), Y0, Y0
	VADDPD  (R10)(BX*1), Y0, Y0
	VMULPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     loop

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
