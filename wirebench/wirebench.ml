(* wirebench: closed-loop clients driving tip_serve over the wire.

   Usage (from the repository root, after building):
     wirebench --workload clinic|history_scan|ingest_replicated
               --seed N --seconds S --trace 0|1

   With --trace 0 it sets the served database up several times (the
   median is setup_s), runs the workload's fixed op lists from two
   client threads on two connections, checks the results and prints the
   end-to-end metrics. With --trace 1 it runs the same seed twice on
   fresh servers, untraced and traced, and prints the per-layer
   breakdown of the traced run. The last line of stdout is one JSON
   object; a wrong result makes the exit code 1. *)

module Remote = Tip_server.Remote
module Db = Tip_engine.Database
module Value = Tip_storage.Value

let now = Unix.gettimeofday
let work_root = ".wirebench"

(* --- servers ------------------------------------------------------------ *)

type cluster = {
  primary : Proc.t;
  replica : Proc.t option;
  pdir : string;
  admin : Remote.t;  (** the bench's own connection to the primary *)
}

let connect port = Remote.connect ~attempts:1 ~deadline:120. ~port ()
let rows_of = Layers.rows_of

let int_of v =
  match v with Value.Int i -> i | v -> int_of_float (Layers.num v)

(* The primary's subscriber view as (generation, wal_bytes, acked_bytes).
   A row whose acked offset lies past the WAL end still describes the
   generation a checkpoint has just retired; it says nothing yet about
   the current one. *)
let subscriber_rows conn =
  rows_of
    (Remote.execute conn
       "SELECT generation, wal_bytes, acked_bytes FROM tip_stat_replication")
  |> List.map (fun r -> (int_of r.(0), int_of r.(1), int_of r.(2)))
  |> List.filter (fun (_, w, a) -> a <= w)

(* Polls (1 ms apart) until the replica has acked everything the primary
   had logged at the first probe. A missing row — the replica is
   re-bootstrapping — is "not yet". [on_probe] sees each probe's start
   and end. *)
let await_replica ?(on_probe = fun _ _ -> ()) conn =
  let deadline = now () +. 60. in
  let target = ref None in
  let rec go () =
    let t0 = now () in
    let rows = subscriber_rows conn in
    on_probe t0 (now ());
    (match !target, rows with
    | None, (g, w, _) :: _ -> target := Some (g, w)
    | _ -> ());
    match !target with
    | Some (tg, tw)
      when List.exists (fun (g, _, a) -> g > tg || (g = tg && a >= tw)) rows ->
      ()
    | _ ->
      if now () > deadline then failwith "the replica did not catch up within 60 s";
      Unix.sleepf 0.001;
      go ()
  in
  go ()

let setup (spec : Gen.t) ~dir =
  Proc.mkdir_p dir;
  let pdir = Filename.concat dir "primary" in
  let t0 = now () in
  let primary =
    Proc.spawn ~log:(Filename.concat dir "primary.log")
      [ "--durability"; pdir; "--sync"; "always" ]
  in
  let admin = connect primary.Proc.port in
  List.iter (fun sql -> ignore (Remote.execute admin sql)) spec.setup;
  let replica =
    if spec.replica then begin
      let r =
        Proc.spawn ~log:(Filename.concat dir "replica.log")
          [ "--replica-of"; Printf.sprintf "127.0.0.1:%d" primary.Proc.port ]
      in
      await_replica admin;
      Some r
    end
    else None
  in
  ({ primary; replica; pdir; admin }, now () -. t0)

let teardown c ~dir =
  (try Remote.close c.admin with _ -> ());
  Option.iter Proc.kill c.replica;
  Proc.kill c.primary;
  Proc.rm_rf dir

(* --- one pass of the op lists ------------------------------------------ *)

type span = { s_label : string; s_client : int; s_t0 : float; s_t1 : float }

type pass = {
  lat : (string * Gen.kind * float) list;  (** label, kind, statement ms *)
  op_ms : float list;
      (** per op of the latency clients, including any wait for the replica *)
  visible_ms : float list;
  ops : int;
  rate : float;  (** ops per second, summed over the clients' own windows *)
  failed : int;
  attempted : int;
  late_ms : float;  (** worst lateness of a paced client *)
  spans : span list;  (** every statement of the window, traced passes only *)
  replies : (string * Db.result) list;  (** traced passes only *)
  before : Layers.snap list;  (** primary first, then the replica *)
  after : Layers.snap list;
}

let snapshots c =
  let replica_snap =
    Option.map
      (fun r ->
        let conn = connect r.Proc.port in
        Fun.protect ~finally:(fun () -> Remote.close conn) (fun () -> Layers.snapshot conn))
      c.replica
  in
  Layers.snapshot c.admin :: Option.to_list replica_snap

(* The clients finish their warm-up ops, the bench snapshots the
   counters, then releases them all at once into the timed window. *)
type gate = { m : Mutex.t; cv : Condition.t; mutable arrived : int; mutable open_ : bool }

let wait_at_gate g =
  Mutex.lock g.m;
  g.arrived <- g.arrived + 1;
  Condition.broadcast g.cv;
  while not g.open_ do Condition.wait g.cv g.m done;
  Mutex.unlock g.m

type client_result = {
  c_lat : (string * Gen.kind * float) list;
  c_op_ms : float list;
  c_ops : int;
  c_vis : float list;
  c_spans : span list;
  c_replies : (string * Db.result) list;
  c_failed : int;
  c_end : float;
  c_late : float;  (** a paced client's worst lateness, seconds *)
}

let run_pass (spec : Gen.t) c ~traced =
  let n_clients = Array.length spec.clients in
  let g = { m = Mutex.create (); cv = Condition.create (); arrived = 0; open_ = false } in
  let results = Array.make n_clients None and crashed = Array.make n_clients None in
  let client k () =
    (* a client that dies still passes the gate, so the others run on
       and the pass ends with its exception *)
    let arrived = ref false in
    let arrive () =
      if not !arrived then begin
        arrived := true;
        wait_at_gate g
      end
    in
    try
      let conn = connect c.primary.Proc.port in
      let ops = spec.clients.(k) and w = spec.warmup.(k) in
      let lat = ref [] and op_ms = ref [] and vis = ref [] and timed = ref 0 in
      let spans = ref [] and replies = ref [] and failed = ref 0 in
      let in_window = ref false and late = ref 0. in
      let t_first = now () in
      let record label t0 t1 =
        if traced && !in_window then
          spans := { s_label = label; s_client = k; s_t0 = t0; s_t1 = t1 } :: !spans
      in
      Array.iteri
        (fun i (op : Gen.op) ->
          if i = w then begin
            arrive ();
            in_window := true
          end;
          (match spec.pace.(k) with
          | Some rate ->
            let due = t_first +. (float_of_int i /. rate) in
            let t = now () in
            if t < due then Unix.sleepf (due -. t)
            else if !in_window then late := Float.max !late (t -. due)
          | None -> ());
          if op.think > 0. then Unix.sleepf op.think;
          let t0 = now () in
          match Remote.execute conn op.sql with
          | exception Remote.Remote_error _ -> incr failed
          | res ->
            let t1 = now () in
            record op.label t0 t1;
            if traced && !in_window then replies := (op.sql, res) :: !replies;
            let ok =
              match op.kind, res, op.affected with
              | Gen.Read, Db.Rows _, _ -> true
              | Gen.Write, Db.Affected n, Some e -> n = e
              | _ -> false
            in
            if not ok then incr failed;
            let t2 =
              if op.await_replica then begin
                let ta = now () in
                match await_replica ~on_probe:(record "probe") conn with
                | () ->
                  let tv = now () in
                  if !in_window then vis := ((tv -. ta) *. 1e3) :: !vis;
                  tv
                | exception Remote.Remote_error _ ->
                  incr failed;
                  now ()
              end
              else t1
            in
            if !in_window then begin
              incr timed;
              lat := (op.label, op.kind, (t1 -. t0) *. 1e3) :: !lat;
              if spec.latency.(k) then op_ms := ((t2 -. t0) *. 1e3) :: !op_ms
            end)
        ops;
      arrive ();
      let c_end = now () in
      Remote.close conn;
      results.(k) <-
        Some
          { c_lat = !lat; c_op_ms = !op_ms; c_ops = !timed; c_vis = !vis; c_spans = !spans;
            c_replies = !replies; c_failed = !failed; c_end; c_late = !late }
    with e ->
      crashed.(k) <- Some e;
      arrive ()
  in
  let threads = List.init n_clients (fun k -> Thread.create (client k) ()) in
  Mutex.lock g.m;
  while g.arrived < n_clients do Condition.wait g.cv g.m done;
  Mutex.unlock g.m;
  let before = snapshots c in
  Mutex.lock g.m;
  let t_start = now () in
  g.open_ <- true;
  Condition.broadcast g.cv;
  Mutex.unlock g.m;
  List.iter Thread.join threads;
  Array.iter (Option.iter raise) crashed;
  let after = snapshots c in
  let res = Array.to_list (Array.map Option.get results) in
  let cat f = List.concat_map f res in
  { lat = cat (fun r -> r.c_lat);
    op_ms = cat (fun r -> r.c_op_ms);
    visible_ms = cat (fun r -> r.c_vis);
    ops = List.fold_left (fun a r -> a + r.c_ops) 0 res;
    (* each client's ops over its own time in the window: a client that
       finishes early does not stretch the other's denominator *)
    rate =
      List.fold_left
        (fun a r ->
          a +. (float_of_int r.c_ops /. (r.c_end -. t_start)))
        0. res;
    failed = List.fold_left (fun a r -> a + r.c_failed) 0 res;
    late_ms = 1e3 *. List.fold_left (fun a r -> Float.max a r.c_late) 0. res;
    attempted = Array.fold_left (fun a ops -> a + Array.length ops) 0 spec.clients;
    spans = cat (fun r -> r.c_spans);
    replies = cat (fun r -> r.c_replies);
    before; after }

(* --- oracles ------------------------------------------------------------ *)

let render res =
  rows_of res
  |> List.map (fun r ->
         String.concat "|" (Array.to_list (Array.map Value.to_display_string r)))
  |> List.sort compare

(* The state the op lists must leave: the set-up statements and every
   client's writes, applied to an embedded database. Clients write
   disjoint keys, so applying them one client after the other is exact. *)
let expected_db (spec : Gen.t) =
  let db = Tip_blade.Blade.create_database () in
  List.iter (fun sql -> ignore (Db.exec db sql)) spec.setup;
  Array.iter
    (Array.iter (fun (op : Gen.op) -> if op.kind = Gen.Write then ignore (Db.exec db op.sql)))
    spec.clients;
  db

(* Returns (checks made, mismatches) and prints each mismatch. *)
let oracles (spec : Gen.t) c =
  let db = expected_db spec in
  let checks = ref 0 and bad = ref 0 in
  let check what ok =
    incr checks;
    if not ok then begin
      incr bad;
      Printf.printf "MISMATCH %s\n%!" what
    end
  in
  let safe f = try Some (f ()) with Remote.Remote_error _ -> None in
  let primary = safe (fun () -> render (Remote.execute c.admin spec.dump)) in
  check "final state: primary vs expected"
    (primary = Some (render (Db.exec db spec.dump)));
  Option.iter
    (fun r ->
      let conn = connect r.Proc.port in
      let replica =
        safe (fun () ->
            await_replica c.admin;
            render (Remote.execute conn spec.dump))
      in
      Remote.close conn;
      check "final state: replica vs primary" (replica <> None && replica = primary))
    c.replica;
  List.iter
    (fun sql ->
      check ("probe: " ^ sql)
        (safe (fun () -> render (Remote.execute c.admin sql))
        = Some (render (Db.exec db sql))))
    spec.probes;
  (!checks, !bad)

let quantile = Layers.quantile
let median = Layers.median

(* --- output ------------------------------------------------------------- *)

let print_metric (name, value, unit) =
  Printf.printf "%-40s %14.4f %s\n" name value unit

let json_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let count_label (p : pass) label =
  List.length (List.filter (fun s -> s.s_label = label) p.spans)

let write_spans ~path spans =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  let t_base = List.fold_left (fun a s -> Float.min a s.s_t0) infinity spans in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.1f, \"dur\": %.1f}\n"
        (if i = 0 then "" else ",")
        s.s_label s.s_client
        ((s.s_t0 -. t_base) *. 1e6)
        ((s.s_t1 -. s.s_t0) *. 1e6))
    spans;
  output_string oc "]}\n";
  close_out oc

(* --- the two modes ------------------------------------------------------ *)

let setup_repeats = 3

let run_untraced (spec : Gen.t) ~dir =
  let times = ref [] and kept = ref None in
  for i = 1 to setup_repeats do
    let sub = Filename.concat dir (Printf.sprintf "setup%d" i) in
    let c, secs = setup spec ~dir:sub in
    times := secs :: !times;
    if i < setup_repeats then teardown c ~dir:sub else kept := Some (c, sub)
  done;
  let c, sub = Option.get !kept in
  let p = run_pass spec c ~traced:false in
  let rss = Proc.peak_rss_mib c.primary in
  let disk = Proc.dir_bytes c.pdir in
  let checks, bad = oracles spec c in
  let counts name = Layers.dm (List.hd p.before) (List.hd p.after) name in
  teardown c ~dir:sub;
  let of_kind k = List.filter_map (fun (_, k', ms) -> if k' = k then Some ms else None) p.lat in
  let reads = of_kind Gen.Read and writes = of_kind Gen.Write in
  let failed = p.failed + bad and attempted = p.attempted + checks in
  let e2e =
    [ ("setup_s", median !times, "s");
      ("throughput_ops_s", p.rate, "1/s");
      ("p50_ms", median p.op_ms, "ms");
      ("p95_ms", quantile p.op_ms 0.95, "ms");
      ("server_peak_rss_mb", rss, "MiB");
      ("disk_bytes_per_row", float_of_int disk /. float_of_int spec.live_rows, "B/row") ]
  in
  let by_class =
    List.concat
      [ (if reads = [] then []
         else [ ("read_p50_ms", median reads, "ms"); ("read_p95_ms", quantile reads 0.95, "ms") ]);
        (if writes = [] then []
         else [ ("write_p50_ms", median writes, "ms"); ("write_p95_ms", quantile writes 0.95, "ms") ]);
        (if p.visible_ms = [] then []
         else
           [ ("visible_p50_ms", median p.visible_ms, "ms");
             ("visible_p95_ms", quantile p.visible_ms 0.95, "ms") ]);
        [ ("failed_share", float_of_int failed /. float_of_int attempted, "ratio");
          ("timed_ops", float_of_int p.ops, "count");
          ("paced_late_max_ms", p.late_ms, "ms");
          ("read_samples", float_of_int (List.length reads), "count");
          ("write_samples", float_of_int (List.length writes), "count");
          ("visible_samples", float_of_int (List.length p.visible_ms), "count");
          ("wal_records", counts "wal_appends_total", "count");
          ("wal_commits", counts "wal_commits_total", "count");
          ("checkpoints", counts "checkpoints_total", "count");
          ("replica_bootstraps", counts "repl_bootstraps_total", "count") ] ]
  in
  List.iter print_metric (e2e @ by_class);
  List.iteri (fun i t -> Printf.printf "setup run %d: %.4f s\n" (i + 1) t) (List.rev !times);
  (failed = 0, attempted, failed, e2e)

let run_traced (spec : Gen.t) ~dir ~spans_path =
  (* untraced pass on a fresh cluster: the throughput the trace costs *)
  let sub = Filename.concat dir "untraced" in
  let c, _ = setup spec ~dir:sub in
  let plain = run_pass spec c ~traced:false in
  teardown c ~dir:sub;
  let sub = Filename.concat dir "traced" in
  let c, _ = setup spec ~dir:sub in
  let p = run_pass spec c ~traced:true in
  let labels = List.sort_uniq compare (List.map (fun s -> s.s_label) p.spans) in
  let first_sql label =
    match label with
    | "probe" -> "SELECT generation, wal_bytes, acked_bytes FROM tip_stat_replication"
    | _ ->
      let ops = Array.concat (Array.to_list spec.clients) in
      (List.find (fun (o : Gen.op) -> o.label = label) (Array.to_list ops)).sql
  in
  let is_read label =
    label = "probe"
    || Array.exists (Array.exists (fun (o : Gen.op) -> o.label = label && o.kind = Gen.Read)) spec.clients
  in
  let plans =
    List.filter_map
      (fun l -> if is_read l then Some (l, Layers.explain_median c.admin (first_sql l)) else None)
      labels
  in
  let checks, bad = oracles spec c in
  teardown c ~dir:sub;
  write_spans ~path:spans_path p.spans;
  let n = float_of_int (List.length p.spans) in
  let per_stmt x = x /. n in
  let pa = List.hd p.before and pb = List.hd p.after in
  let dm = Layers.dm pa pb and dw = Layers.dw pa pb in
  let span_ms = List.fold_left (fun a s -> a +. ((s.s_t1 -. s.s_t0) *. 1e3)) 0. p.spans in
  let rtt = span_ms /. n in
  let server_ms =
    dm "server_statement_ns_sum" /. 1e6 /. Float.max 1. (dm "server_statement_ns_count")
  in
  let weighted f =
    List.fold_left
      (fun a (l, pl) -> a +. (float_of_int (count_label p l) *. f pl))
      0. plans
    /. n
  in
  let commits = dm "wal_commits_total" in
  let per_commit x = if commits = 0. then 0. else x /. commits in
  let ckpts = dm "checkpoints_total" in
  let replica_apply =
    match p.before, p.after with
    | [ _; rb ], [ _; ra ] ->
      let batches = Layers.dm rb ra "repl_apply_batches_total" in
      if batches = 0. then 0. else Layers.dw rb ra "ReplicaApply" /. batches
    | _ -> 0.
  in
  let parse_us = Layers.replay_parse (Array.of_list (List.map fst p.replies)) in
  let codec_us =
    Layers.replay_codec ~scratch:(Filename.concat dir "codec.bin") (Array.of_list p.replies)
  in
  let plan_ms = weighted (fun pl -> pl.Layers.plan_ms) in
  let exec_ms = weighted (fun pl -> pl.Layers.exec_ms) in
  let dblock = per_stmt (dw "DbLock") in
  let wal_ms = per_stmt (dw "WalFsync" +. dw "WalAppend" +. dw "Checkpoint") in
  let overhead = rtt -. server_ms in
  let traced_tput = p.rate and plain_tput = plain.rate in
  let layers =
    [ ("remote.rtt_ms", rtt, "ms");
      ("remote.overhead_ms", overhead, "ms");
      ("remote.codec_us_per_stmt", codec_us, "us");
      ("server.dblock_wait_ms_per_stmt", dblock, "ms");
      ("server.dblock_share", dw "DbLock" /. span_ms, "ratio");
      ("server.client_write_ms_per_stmt", per_stmt (dw "ClientWrite"), "ms");
      ("sql.parse_us_per_stmt", parse_us, "us");
      ("planner.plan_ms_per_stmt", plan_ms, "ms");
      ("executor.exec_ms_per_stmt", exec_ms, "ms");
      ( "executor.rows_scanned_per_row_returned",
        float_of_int (pb.rows_scanned - pa.rows_scanned)
        /. Float.max 1. (float_of_int (pb.rows_returned - pa.rows_returned)),
        "ratio" );
      ("executor.morsels_per_stmt", per_stmt (dm "exec_morsels_total"), "count");
      ("storage.btree_probes_per_stmt", per_stmt (dm "btree_probes_total"), "count");
      ( "storage.interval_probes_per_stmt",
        weighted (fun pl -> float_of_int pl.Layers.interval),
        "count" );
      ( "storage.partitions_scanned_per_stmt",
        weighted (fun pl -> float_of_int pl.Layers.partitions),
        "count" );
      ("wal.records_per_commit", per_commit (dm "wal_appends_total"), "count");
      ("wal.bytes_per_commit", per_commit (dm "wal_bytes_total"), "B");
      ("wal.fsyncs_per_commit", per_commit (dm "wal_fsyncs_total"), "count");
      ("wal.fsync_ms_per_commit", per_commit (dw "WalFsync"), "ms");
      ("wal.append_ms_per_commit", per_commit (dw "WalAppend"), "ms");
      ("checkpoint.count", ckpts, "count");
      ( "checkpoint.ms_mean",
        (if ckpts = 0. then 0. else dw "Checkpoint" /. ckpts),
        "ms" );
      ( "replication.bytes_shipped_per_commit",
        per_commit (dm "repl_bytes_sent_total"),
        "B" );
      ("replication.apply_ms_per_batch", replica_apply, "ms");
      ("replication.bootstraps", dm "repl_bootstraps_total", "count");
      ( "unattributed_ms",
        rtt -. (overhead +. dblock +. (parse_us /. 1e3) +. plan_ms +. exec_ms +. wal_ms),
        "ms" );
      ("trace.overhead_pct", 100. *. ((plain_tput /. traced_tput) -. 1.), "%") ]
  in
  List.iter print_metric layers;
  Printf.printf "traced statements: %d (%s)\n" (List.length p.spans)
    (String.concat ", "
       (List.map (fun l -> Printf.sprintf "%s %d" l (count_label p l)) labels));
  let failed = plain.failed + p.failed + bad in
  let attempted = plain.attempted + p.attempted + checks in
  (failed = 0, attempted, failed, layers)

(* --- main ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME clinic, history_scan or ingest_replicated");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics or the per-layer breakdown") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wirebench --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match Gen.make !workload ~seed:!seed ~seconds:(float_of_int !seconds) with
    | Some s when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) -> s
    | _ ->
      prerr_endline "wirebench: need --workload (clinic|history_scan|ingest_replicated), --seed N >= 0, --seconds S > 0, --trace 0|1";
      exit 2
  in
  if not (Sys.file_exists Proc.server_exe) then begin
    prerr_endline ("wirebench: " ^ Proc.server_exe ^ " not built");
    exit 2
  end;
  Tip_blade.Values.register_types ();
  let dir =
    Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  Proc.mkdir_p dir;
  at_exit (fun () ->
      Proc.kill_all ();
      Proc.rm_rf dir);
  (* a stopped bench still stops its servers *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let correct, attempted, failed, metrics =
    if !trace = 0 then run_untraced spec ~dir
    else
      run_traced spec ~dir
        ~spans_path:
          (Filename.concat work_root
             (Printf.sprintf "spans-%s-seed%d.json" spec.Gen.name !seed))
  in
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then begin
        prerr_endline ("wirebench: no value for " ^ name);
        exit 2
      end)
    metrics;
  json_line ~correct ~attempted ~failed metrics;
  if not correct then exit 1
