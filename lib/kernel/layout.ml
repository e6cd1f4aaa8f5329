let page_size = Fc_mem.Phys_mem.page_size
let kernel_base = 0xc0000000
let text_base = 0xc0100000
let text_limit = 0xc0180000 (* 512 KiB reserved for base kernel code *)
let data_base = 0xc8000000
let current_task_ptr_cpu ~vid = data_base + (4 * vid)
let module_list_head = data_base + 0x100
let task_struct_base = data_base + 0x1000
let task_struct_size = 0x100
let task_struct_addr ~pid = task_struct_base + (pid * task_struct_size)
let kstack_base = 0xc8100000
let kstack_size = 0x4000
let kstack_top ~pid = kstack_base + ((pid + 1) * kstack_size) - 4
let module_area_base = 0xf8000000
let module_area_limit = 0xf8100000 (* 1 MiB of module space *)

let gva_to_gpa gva =
  if gva < kernel_base then invalid_arg "Layout.gva_to_gpa: user address";
  gva - kernel_base

let gpa_to_gva gpa = gpa + kernel_base
let is_kernel_address a = a >= kernel_base
let is_module_address a = a >= module_area_base && a < module_area_limit
let page_of a = a / page_size
