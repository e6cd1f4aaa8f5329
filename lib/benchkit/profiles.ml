type t = {
  image : Fc_kernel.Image.t;
  configs : (string * Fc_profiler.View_config.t) list;
}

let compute ?(iterations = 12) image =
  let configs =
    List.map
      (fun app -> (app.Fc_apps.App.name, Fc_apps.App.profile ~iterations image app))
      Fc_apps.App.all
  in
  { image; configs }

let image t = t.image
let with_image t image = { t with image }
let apps t = List.map fst t.configs

let config_of t name =
  match List.assoc_opt name t.configs with
  | Some c -> c
  | None -> invalid_arg ("Profiles.config_of: not profiled: " ^ name)

let all_configs t = t.configs

let union_config t =
  Fc_profiler.View_config.union ~app:"union" (List.map snd t.configs)
