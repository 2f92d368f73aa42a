(* The traced run's per-layer breakdown, measured from outside the
   server: counter snapshots read over the wire before and after the
   timed window, one EXPLAIN ANALYZE per read fingerprint, and an
   in-process replay of the window's statements through the parser and
   the wire codec. *)

module Remote = Tip_server.Remote
module Db = Tip_engine.Database
module Value = Tip_storage.Value

(* One server's cumulative counters at an instant. *)
type snap = {
  metrics : (string * int) list;  (** the registry dump, [tip_] prefix dropped *)
  waits : (string * float) list;  (** wait class -> total waited ms *)
  rows_returned : int;
  rows_scanned : int;  (** summed over data-statement fingerprints *)
}

let rows_of = function Db.Rows { rows; _ } -> rows | _ -> []

let parse_metrics text =
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' || String.contains line '{' then None
      else
        match String.split_on_char ' ' line with
        | [ name; v ] when String.starts_with ~prefix:"tip_" name -> (
          match int_of_string_opt v with
          | Some v -> Some (String.sub name 4 (String.length name - 4), v)
          | None -> None)
        | _ -> None)
    (String.split_on_char '\n' text)

let num v =
  match v with
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | _ -> 0.

let contains s sub = Option.is_some (Proc.find_sub s sub)

let snapshot conn =
  let metrics = parse_metrics (Remote.metrics conn) in
  let waits =
    List.map
      (fun r -> (Value.to_display_string r.(0), num r.(1)))
      (rows_of
         (Remote.execute conn "SELECT wait_class, total_wait_ms FROM tip_stat_waits"))
  in
  let stmt_rows =
    rows_of
      (Remote.execute conn
         "SELECT query, rows_returned, rows_scanned FROM tip_stat_statements")
    |> List.filter (fun r -> not (contains (Value.to_display_string r.(0)) "tip_stat"))
  in
  let sum i = List.fold_left (fun a r -> a + int_of_float (num r.(i))) 0 stmt_rows in
  { metrics; waits; rows_returned = sum 1; rows_scanned = sum 2 }

let metric s name = Option.value (List.assoc_opt name s.metrics) ~default:0
let wait s name = Option.value (List.assoc_opt name s.waits) ~default:0.
let dm a b name = float_of_int (metric b name - metric a name)
let dw a b name = wait b name -. wait a name

(* EXPLAIN ANALYZE of one statement: plan and execute ms, the interval
   index probes in the executed plan, and the partitions its partition
   scans kept. *)
type plan_info = {
  plan_ms : float;
  exec_ms : float;
  interval : int;
  partitions : int;
}

(* Start offsets of every occurrence of [sub] in [s]. *)
let occurrences s sub =
  let n = String.length s and m = String.length sub in
  List.filter (fun i -> String.sub s i m = sub) (List.init (max 0 (n - m + 1)) Fun.id)

let explain conn sql =
  match Remote.execute conn ("EXPLAIN ANALYZE " ^ sql) with
  | Db.Message text ->
    let plan_ms, exec_ms =
      match Proc.find_sub text "Phases: " with
      | Some i ->
        Scanf.sscanf
          (String.sub text i (String.length text - i))
          "Phases: plan %f ms, execute %f ms" (fun p e -> (p, e))
      | None -> (0., 0.)
    in
    let kept i =
      Scanf.sscanf (String.sub text i (String.length text - i)) "partitions=%d/" Fun.id
    in
    { plan_ms; exec_ms;
      interval = List.length (occurrences text "IntervalScan ");
      partitions =
        List.fold_left (fun a i -> a + kept i) 0 (occurrences text "partitions=") }
  | _ -> failwith "EXPLAIN ANALYZE did not answer with a plan"

(* Linear interpolation between closest ranks; nan for no samples. *)
let quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median l = quantile l 0.5

(* Five runs per fingerprint, medians of the phase times. *)
let explain_median conn sql =
  let runs = List.init 5 (fun _ -> explain conn sql) in
  let first = List.hd runs in
  { first with
    plan_ms = median (List.map (fun p -> p.plan_ms) runs);
    exec_ms = median (List.map (fun p -> p.exec_ms) runs) }

(* Microseconds per statement to parse the window's statements. *)
let replay_parse sqls =
  let n = Array.length sqls in
  let t0 = Unix.gettimeofday () in
  Array.iter (fun s -> ignore (Tip_sql.Parser.parse s)) sqls;
  (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (max 1 n)

(* Microseconds per statement to encode and decode each request and its
   response through the wire codec, via a scratch file. *)
let replay_codec ~scratch (pairs : (string * Db.result) array) =
  let module P = Tip_server.Protocol in
  let to_response = function
    | Db.Rows { names; rows } -> P.Rows { names; rows }
    | Db.Affected n -> P.Affected n
    | Db.Message m -> P.Message m
  in
  let oc = open_out_bin scratch in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun (sql, res) ->
      ignore (P.decode_request (P.encode_request (P.Execute sql)));
      P.write_response oc (to_response res))
    pairs;
  close_out oc;
  let ic = open_in_bin scratch in
  Array.iter (fun _ -> ignore (P.read_response ic)) pairs;
  close_in ic;
  let us = (Unix.gettimeofday () -. t0) *. 1e6 in
  Sys.remove scratch;
  us /. float_of_int (max 1 (Array.length pairs))
