(* Shared expensive fixtures and checks for the heavier test modules. *)

let image = lazy (Fc_kernel.Image.build_exn ())

let profiles = lazy (Fc_benchkit.Profiles.compute ~iterations:8 (Lazy.force image))

(* The frames of [hyp]'s resident frame-cache entries whose key is not
   the MD5 of their bytes, or whose recorded digest differs from the key:
   a view page's key comes from the image's memo, not from hashing the
   page, so a wrong memo key shows here. *)
let misfiled_frames hyp =
  let phys = Fc_machine.Os.phys (Fc_hypervisor.Hypervisor.os hyp) in
  List.filter_map
    (fun (key, frame, _) ->
      if
        Digest.bytes (Fc_mem.Phys_mem.frame_bytes phys frame) = key
        && Fc_mem.Phys_mem.digest phys frame = key
      then None
      else Some frame)
    (Fc_mem.Frame_cache.export (Fc_hypervisor.Hypervisor.frame_cache hyp))
