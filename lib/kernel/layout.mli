(** Guest address-space layout.

    Mirrors the paper's i386 guest: user space below 3 GiB, the kernel
    direct-mapped above [0xc0000000], loadable modules in a high "kernel
    heap" region (the paper's module code "scattered in the kernel heap").
    Guest-physical addresses are obtained by subtracting the kernel base,
    like Linux's lowmem direct map.

    The synthetic kernel's text section (~450 KB) is smaller than a real
    2.6.32 image (several MB) but of the same order as the paper's
    per-application views; all structure — page and directory granularity,
    alignment, region separation — is preserved (see DESIGN.md §7). *)

val page_size : int
val kernel_base : int
(** [0xc0000000] — start of kernel virtual space. *)

val text_base : int
(** [0xc0100000] — first byte of base kernel code. *)

val text_limit : int
(** Exclusive upper bound reserved for base kernel code. *)

val data_base : int
(** Kernel data region (task structs, module list, current pointer). *)

val current_task_ptr_cpu : vid:int -> int
(** Address of the guest word holding a pointer to the process running
    on vCPU [vid] (one guest word per vCPU, like the kernel's per-CPU
    [current]) — what VMI reads on a context-switch trap. *)

val module_list_head : int
(** Address of the guest word heading the kernel module linked list. *)

val task_struct_base : int
val task_struct_size : int
val task_struct_addr : pid:int -> int

val kstack_base : int
val kstack_size : int
(** Per-process kernel stack (16 KiB). *)

val kstack_top : pid:int -> int
(** Initial stack pointer (stacks grow down). *)

val module_area_base : int
(** [0xf8000000] — where module code is loaded. *)

val module_area_limit : int

val gva_to_gpa : int -> int
(** Direct-map translation for kernel addresses — the whole kernel
    address space, module area included, is mapped this way and there
    are no guest page tables: a kernel page is mapped iff guest RAM backs
    its guest-physical page ([Os]'s RAM map).
    @raise Invalid_argument below [kernel_base]. *)

val gpa_to_gva : int -> int

val is_kernel_address : int -> bool
val is_module_address : int -> bool

val page_of : int -> int
