module Smof = Smod_modfmt.Smof

type protection = Encrypted | Unmap_only

type native_fn = Smod_kern.Machine.t -> Smod_kern.Proc.t -> args_base:int -> int

type entry = {
  m_id : int;
  image : Smof.t;
  protection : protection;
  mutable policy : Policy.t;
  mutable policy_rev : int;
  admin_principal : string;
  mutable kernel_key : string option;
  mutable kernel_nonce : bytes option;
  natives : (string, native_fn) Hashtbl.t;
  functions : Smof.symbol array;
  (* Compiled-policy cache: Policy.compiled keyed by
     "<credential digest>\x00<policy_rev>\x00<keystore generation>", so a
     stale program can never be returned — but stale entries are also
     flushed eagerly (policy change here, keystore change and module
     removal in Smod) to keep the table bounded and the invalidation
     counters honest. *)
  compiled_cache : (string, Policy.compiled) Hashtbl.t;
  mutable compile_hits : int;
  mutable compile_misses : int;
  mutable compile_invalidations : int;
  (* Per-funcID constants of the dispatch path, each built on first use:
     the expected native stub image (a pure function of the symbol's
     native name and size) and the two per-function dispatch counters. *)
  native_images : bytes option array;
  func_calls : Smod_metrics.Counter.t option array;
  func_denied : Smod_metrics.Counter.t option array;
}

type t = { mutable next_id : int; by_id : (int, entry) Hashtbl.t }

exception Not_registered of string
exception Already_registered of string

let create () = { next_id = 1; by_id = Hashtbl.create 16 }

let find t ~name ~version =
  Hashtbl.fold
    (fun _ e acc ->
      if e.image.Smof.mod_name = name && e.image.Smof.mod_version = version then Some e else acc)
    t.by_id None

let add t ~image ~protection ~policy ~admin_principal ?kernel_key ?kernel_nonce () =
  (match find t ~name:image.Smof.mod_name ~version:image.Smof.mod_version with
  | Some _ ->
      raise
        (Already_registered
           (Printf.sprintf "%s v%d" image.Smof.mod_name image.Smof.mod_version))
  | None -> ());
  if image.Smof.encrypted && kernel_key = None then
    invalid_arg "Registry.add: encrypted image requires a kernel key";
  let functions = Array.of_list (Smof.function_symbols image) in
  let n_functions = Array.length functions in
  let entry =
    {
      m_id = t.next_id;
      image;
      protection;
      policy;
      policy_rev = 1;
      admin_principal;
      kernel_key;
      kernel_nonce;
      natives = Hashtbl.create 8;
      functions;
      compiled_cache = Hashtbl.create 8;
      compile_hits = 0;
      compile_misses = 0;
      compile_invalidations = 0;
      native_images = Array.make n_functions None;
      func_calls = Array.make n_functions None;
      func_denied = Array.make n_functions None;
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.by_id entry.m_id entry;
  entry

let remove t ~m_id =
  if not (Hashtbl.mem t.by_id m_id) then
    raise (Not_registered (Printf.sprintf "m_id %d" m_id));
  Hashtbl.remove t.by_id m_id

let find_by_id t m_id = Hashtbl.find_opt t.by_id m_id
let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.by_id []

let plaintext_image e =
  if not e.image.Smof.encrypted then e.image
  else begin
    match (e.kernel_key, e.kernel_nonce) with
    | Some key, Some nonce -> Smof.decrypt_text e.image ~key ~nonce
    | _ -> raise (Smof.Malformed "encrypted module has no kernel key")
  end

let func_id e name =
  let rec scan i =
    if i >= Array.length e.functions then None
    else if e.functions.(i).Smof.sym_name = name then Some i
    else scan (i + 1)
  in
  scan 0

let symbol_of_func_id e id =
  if id >= 0 && id < Array.length e.functions then Some e.functions.(id) else None

let flush_compiled e =
  let n = Hashtbl.length e.compiled_cache in
  if n > 0 then begin
    Hashtbl.reset e.compiled_cache;
    e.compile_invalidations <- e.compile_invalidations + n
  end;
  n

let compiled_key ~cred_digest ~policy_rev ~keystore_gen =
  Printf.sprintf "%s\x00%d\x00%d" cred_digest policy_rev keystore_gen

let find_compiled e key =
  match Hashtbl.find_opt e.compiled_cache key with
  | Some c ->
      e.compile_hits <- e.compile_hits + 1;
      Some c
  | None -> None

let store_compiled e key compiled =
  e.compile_misses <- e.compile_misses + 1;
  Hashtbl.replace e.compiled_cache key compiled

let set_policy e policy =
  e.policy <- policy;
  e.policy_rev <- e.policy_rev + 1;
  ignore (flush_compiled e)

let bind_native e ~name fn = Hashtbl.replace e.natives name fn
let native e name = Hashtbl.find_opt e.natives name

let native_image e id =
  match e.native_images.(id) with
  | Some image -> image
  | None -> (
      let sym = e.functions.(id) in
      match sym.Smof.sym_kind with
      | Smof.Native name ->
          let image = Smof.native_stub_image ~name ~size:sym.Smof.sym_size in
          e.native_images.(id) <- Some image;
          image
      | Smof.Bytecode -> invalid_arg "Registry.native_image: not a native symbol")

let func_counter e ~denied id =
  let cache = if denied then e.func_denied else e.func_calls in
  match cache.(id) with
  | Some c -> c
  | None ->
      let kind = if denied then "func_denied" else "func_calls" in
      let c =
        Smod_metrics.counter
          (String.concat "."
             [ "secmodule"; kind; e.image.Smof.mod_name; e.functions.(id).Smof.sym_name ])
      in
      cache.(id) <- Some c;
      c
