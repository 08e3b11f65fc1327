type trigger = At_time of int | At_io of int

type event =
  | Rank_crash of { rank : int; trigger : trigger; restart_delay : int option }
  | Drain_fault of { node : int option; after : int; failures : int }
  | Ost_fail of {
      target : int;
      at : int;
      recover : int option;
      failover : bool;
    }
  | Mds_fail of { at : int; recover : int option; shard : int option }
  | Log_fail of { node : int option; after : int; failures : int }
  | Log_cap of { bytes : int }

type t = { name : string; seed : int; events : event list }

let make ?(name = "plan") ?(seed = 42) events = { name; seed; events }

let crash ?(rank = 0) ?restart_delay trigger =
  Rank_crash { rank; trigger; restart_delay }

let drain_fault ?node ?(after = 0) failures =
  Drain_fault { node; after; failures }

let ost_fail ?recover ?(failover = false) ~target at =
  Ost_fail { target; at; recover; failover }

let mds_fail ?recover ?shard at = Mds_fail { at; recover; shard }
let log_fail ?node ?(after = 0) failures = Log_fail { node; after; failures }
let log_cap bytes = Log_cap { bytes }

let crash_count t =
  List.length
    (List.filter (function Rank_crash _ -> true | _ -> false) t.events)

let has_log_events t =
  List.exists
    (function Log_fail _ | Log_cap _ -> true | _ -> false)
    t.events

(* Spec syntax ------------------------------------------------------------- *)

let trigger_to_string = function
  | At_time time -> Printf.sprintf "t=%d" time
  | At_io n -> Printf.sprintf "io=%d" n

let event_to_string = function
  | Rank_crash { rank; trigger; restart_delay } ->
    Printf.sprintf "crash:rank=%d,%s%s" rank
      (trigger_to_string trigger)
      (match restart_delay with
      | Some d -> Printf.sprintf ",restart=%d" d
      | None -> "")
  | Drain_fault { node; after; failures } ->
    String.concat ""
      [
        Printf.sprintf "drainfail:count=%d" failures;
        (match node with
        | Some n -> Printf.sprintf ",node=%d" n
        | None -> "");
        (if after > 0 then Printf.sprintf ",after=%d" after else "");
      ]
  | Ost_fail { target; at; recover; failover } ->
    String.concat ""
      [
        Printf.sprintf "ostfail:target=%d,t=%d" target at;
        (match recover with
        | Some d -> Printf.sprintf ",recover=%d" d
        | None -> "");
        (if failover then ",failover=1" else "");
      ]
  | Mds_fail { at; recover; shard } ->
    String.concat ""
      [
        Printf.sprintf "mdsfail:t=%d" at;
        (match shard with
        | Some k -> Printf.sprintf ",shard=%d" k
        | None -> "");
        (match recover with
        | Some d -> Printf.sprintf ",recover=%d" d
        | None -> "");
      ]
  | Log_fail { node; after; failures } ->
    String.concat ""
      [
        Printf.sprintf "logfail:count=%d" failures;
        (match node with
        | Some n -> Printf.sprintf ",node=%d" n
        | None -> "");
        (if after > 0 then Printf.sprintf ",after=%d" after else "");
      ]
  | Log_cap { bytes } -> Printf.sprintf "logcap:bytes=%d" bytes

let to_string t = String.concat ";" (List.map event_to_string t.events)

exception Invalid of string

let check t ~targets ~mds_shards =
  let out_of_range head key k what n =
    Some
      (Printf.sprintf "%s: %s=%d out of range (%s: 0-%d)" head key k what
         (n - 1))
  in
  t.events
  |> List.find_map (function
       | Ost_fail { target; _ } when target >= targets ->
         out_of_range "ostfail" "target" target "storage targets" targets
       | Mds_fail { shard = Some k; _ } when k >= mds_shards ->
         out_of_range "mdsfail" "shard" k "MDS shards" mds_shards
       | _ -> None)
  |> Option.fold ~none:(Ok ()) ~some:Result.error

let ( let* ) = Result.bind

(* Parse errors name the offending token and what the grammar accepts at
   that position, so a typo in a CLI --plan is diagnosable from the
   message alone.  The tokenization and message style live in
   [Hpcfs_util.Spec], shared with the workload DSL. *)

module Spec = Hpcfs_util.Spec

(* Accepted keys per event head.  Checked on the raw string fields,
   *before* integer conversion, so a misspelled key is always reported as
   an unknown key with the event's accepted alternatives — not as a bad
   value for a key that doesn't exist. *)
let accepted_keys = function
  | "crash" -> [ "rank"; "io"; "t"; "restart" ]
  | "drainfail" | "logfail" -> [ "count"; "node"; "after" ]
  | "ostfail" -> [ "target"; "t"; "recover"; "failover" ]
  | "mdsfail" -> [ "t"; "shard"; "recover" ]
  | "logcap" -> [ "bytes" ]
  | _ -> []

(* Convert checked fields to ints in spec order (first bad value wins);
   the consed result stays in reverse field order so [List.assoc_opt]
   keeps seeing the last occurrence of a repeated key. *)
let int_fields head kvs =
  List.fold_left
    (fun acc (k, v) ->
      let* acc = acc in
      let* v = Spec.parse_int head k v in
      (* Targets and shards are indexes; whether one exists depends on
         the PFS ({!check}), but a negative one never does. *)
      if v < 0 && (k = "target" || k = "shard") then
        Error (Printf.sprintf "%s: %s must be >= 0, got %d" head k v)
      else Ok ((k, v) :: acc))
    (Ok []) (List.rev kvs)

let parse_event spec =
  (* [logcap=BYTES] is sugar for [logcap:bytes=BYTES]. *)
  let spec =
    match Spec.split_head (String.lowercase_ascii spec) with
    | head, "" when String.length head > 7 && String.sub head 0 7 = "logcap=" ->
      "logcap:bytes=" ^ String.sub head 7 (String.length head - 7)
    | _ -> spec
  in
  let head, rest = Spec.split_head spec in
  let fields = Spec.fields_of rest in
  match head with
  | "crash" | "drainfail" | "ostfail" | "mdsfail" | "logfail" | "logcap" -> (
    let* kvs = Spec.parse_fields head fields in
    let* () = Spec.check_keys head ~accepted:(accepted_keys head) (List.rev kvs) in
    let* kvs = int_fields head kvs in
    let get k = List.assoc_opt k kvs in
    match head with
    | "crash" ->
      let rank = Option.value ~default:0 (get "rank") in
      let* trigger =
        match (get "io", get "t") with
        | Some n, None -> Ok (At_io n)
        | None, Some time -> Ok (At_time time)
        | Some _, Some _ -> Error "crash: give io= or t=, not both"
        | None, None -> Error "crash: missing trigger (io=N or t=T)"
      in
      Ok (Rank_crash { rank; trigger; restart_delay = get "restart" })
    | "drainfail" | "logfail" ->
      let* failures =
        Option.to_result
          ~none:(Printf.sprintf "%s: missing count=K" head)
          (get "count")
      in
      let node = get "node" in
      let after = Option.value ~default:0 (get "after") in
      Ok
        (if head = "drainfail" then Drain_fault { node; after; failures }
         else Log_fail { node; after; failures })
    | "ostfail" ->
      let* target =
        Option.to_result ~none:"ostfail: missing target=K" (get "target")
      in
      let* at = Option.to_result ~none:"ostfail: missing t=T" (get "t") in
      Ok
        (Ost_fail
           {
             target;
             at;
             recover = get "recover";
             failover =
               (match get "failover" with Some v -> v <> 0 | None -> false);
           })
    | "mdsfail" ->
      let* at = Option.to_result ~none:"mdsfail: missing t=T" (get "t") in
      Ok (Mds_fail { at; recover = get "recover"; shard = get "shard" })
    | _ ->
      let* bytes =
        Option.to_result ~none:"logcap: missing bytes=B" (get "bytes")
      in
      if bytes <= 0 then Error "logcap: bytes must be positive"
      else Ok (Log_cap { bytes }))
  | other ->
    Error
      (Printf.sprintf
         "unknown fault event %S; expected crash, drainfail, ostfail, \
          mdsfail, logfail or logcap"
         other)

let of_string ?(name = "plan") ?(seed = 42) s =
  let specs =
    List.filter (fun f -> String.trim f <> "") (String.split_on_char ';' s)
  in
  if specs = [] then Error "empty fault plan"
  else
    let* events =
      List.fold_left
        (fun acc spec ->
          let* acc = acc in
          let* e = parse_event (String.trim spec) in
          Ok (e :: acc))
        (Ok []) specs
    in
    Ok { name; seed; events = List.rev events }

let pp ppf t = Format.pp_print_string ppf (to_string t)
