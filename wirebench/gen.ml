(* The three workloads as data: the set-up statements that build the
   served database, one fixed op list per client, the probe reads the
   oracle repeats against an embedded database, and the statement that
   dumps the final state.

   Everything here is a pure function of the seed and the run length,
   so two runs with the same arguments send byte-identical statements.
   Each client writes only its own keys (its own patients), so the
   final state does not depend on how the two clients interleave.

   Op lists are stratified: the op classes come in blocks holding each
   class in its fixed share (shuffled within the block), and the
   parameters that set an op's cost (which year a window falls in, which
   quarter is counted) cycle through their range. The seed moves the
   parameters within their strata, so every seed asks for the same
   amount of work. *)

open Tip_core
module M = Tip_workload.Medical
module W = Tip_workload.Warehouse

type kind = Read | Write

type op = {
  label : string;  (** the op class, one per statement fingerprint *)
  kind : kind;
  sql : string;
  affected : int option;  (** a write's expected row count *)
  await_replica : bool;
      (** after the ack, wait until the replica has applied the commit *)
  think : float;  (** seconds to pause before sending, outside the timings *)
}

type t = {
  name : string;
  setup : string list;  (** DDL, bulk load and ANALYZE, in order *)
  clients : op array array;
  warmup : int array;  (** leading ops per client left out of the timings *)
  latency : bool array;  (** clients whose op latencies make p50/p95 *)
  pace : float option array;
      (** a client's offered ops/s; [None] sends each op when the last
          one is answered *)
  replica : bool;
  probes : string list;
  dump : string;
  live_rows : int;  (** rows in the table once every op has run *)
}

let patients = 2_000
let prescriptions = 20_000
let history_rows = 100_000
let start_year = 2015
let years = 10

(* Op lists are sized from the run length with a nominal rate per
   client (ops per second on a 2-core host), not from a clock, so the
   work done is the same on a fast and a slow host. *)
let ops_for ~rate ~seconds = int_of_float (rate *. seconds)

(* [n] op classes drawn from [pattern] repeated block by block, each
   block shuffled. *)
let stratified st n pattern =
  let block = Array.of_list pattern in
  let m = Array.length block in
  let out = Array.make n block.(0) in
  for b = 0 to (n - 1) / m do
    let blk = Array.copy block in
    for i = m - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = blk.(i) in
      blk.(i) <- blk.(j);
      blk.(j) <- x
    done;
    Array.iteri (fun i x -> if (b * m) + i < n then out.((b * m) + i) <- x) blk
  done;
  out

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let head, rest = take n [] l in
    head :: chunks n rest

let insert_batches table batch tuples =
  List.map
    (fun rows ->
      Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " rows))
    (chunks batch tuples)

let read label sql =
  { label; kind = Read; sql; affected = None; await_replica = false; think = 0. }

(* --- clinic: the paper's Section 2 Prescription table ------------------- *)

let presc_tuple (p : M.prescription) =
  Printf.sprintf "('%s', '%s', '%s', '%s', %d, '%s', '%s')" p.doctor p.patient
    (Chronon.to_string p.patientdob)
    p.drug p.dosage
    (Span.to_string p.frequency)
    (Element.to_string p.valid)

let patient_name i = Printf.sprintf "Patient%04d" i
let day0 = Chronon.of_ymd 1995 1 1
let day_range = 6 * 365
let day st = Chronon.add day0 (Span.of_days (Random.State.int st day_range))
let day_s c = String.sub (Chronon.to_string c) 0 10

let random_element st =
  let n = 1 + Random.State.int st 4 in
  Element.of_periods
    (List.init n (fun _ ->
         let s = day st in
         Period.of_chronons s
           (Chronon.add s (Span.of_days (1 + Random.State.int st 120)))))

let point p =
  Printf.sprintf
    "SELECT drug, dosage, valid FROM Prescription WHERE patient = '%s'" p

let asof d =
  Printf.sprintf
    "SELECT count(*) FROM Prescription WHERE overlaps(valid, '{[%s, %s \
     23:59:59]}'::Element)"
    d d

let coalesce p =
  Printf.sprintf
    "SELECT drug, group_union(valid) FROM Prescription WHERE patient = '%s' \
     GROUP BY drug"
    p

(* The bulk load goes in 3000-row statements: the auto-checkpoint (every
   10k log records) fires after the fourth, and the 8000 rows after it
   stay in the log. A run's writes then cross the next checkpoint at a
   fixed point of every op list. *)
let clinic_setup data =
  [ M.native_schema;
    "CREATE INDEX presc_patient ON Prescription (patient)";
    "CREATE INDEX presc_valid ON Prescription (valid) USING INTERVAL" ]
  @ insert_batches "Prescription" 3000 (List.map presc_tuple data)

let per_patient data =
  let counts = Array.make patients 0 in
  List.iter
    (fun (p : M.prescription) ->
      Scanf.sscanf p.patient "Patient%d" (fun i -> counts.(i) <- counts.(i) + 1))
    data;
  counts

let clinic_probes st =
  List.init 8 (fun _ -> point (patient_name (Random.State.int st patients)))
  @ List.init 8 (fun _ -> asof (day_s (day st)))
  @ List.init 8 (fun _ -> coalesce (patient_name (Random.State.int st patients)))

let clinic ~seed ~seconds =
  let data = M.generate ~seed ~patients ~prescriptions () in
  let counts = per_patient data in
  let warmup = 100 in
  let n = warmup + ops_for ~rate:320. ~seconds in
  let client c =
    let st = Random.State.make [| seed; c; 1 |] in
    let any_patient () = patient_name (Random.State.int st patients) in
    Array.map
      (function
        | `Point -> read "point" (point (any_patient ()))
        | `Asof -> read "asof" (asof (day_s (day st)))
        | `Coalesce -> read "coalesce" (coalesce (any_patient ()))
        | `Update ->
          (* a client's own patients: index = client (mod 2) *)
          let i = (2 * Random.State.int st (patients / 2)) + c in
          { label = "update"; kind = Write;
            sql =
              Printf.sprintf
                "UPDATE Prescription SET dosage = %d, frequency = '0 \
                 %02d:00:00' WHERE patient = '%s'"
                (1 + Random.State.int st 4)
                (4 * (1 + Random.State.int st 5))
                (patient_name i);
            affected = Some counts.(i); await_replica = false; think = 0. })
      (stratified st n
         [ `Point; `Point; `Point; `Asof; `Asof; `Asof; `Coalesce; `Coalesce;
           `Coalesce; `Update ])
  in
  { name = "clinic"; setup = clinic_setup data;
    clients = [| client 0; client 1 |]; warmup = [| warmup; warmup |];
    latency = [| true; true |]; pace = [| None; None |]; replica = false;
    probes = clinic_probes (Random.State.make [| seed; 99 |]);
    dump = "SELECT * FROM Prescription"; live_rows = prescriptions }

(* --- ingest_replicated: clinic data, a replica, writers only ------------ *)

let ingest ~seed ~seconds =
  let data = M.generate ~seed ~patients ~prescriptions () in
  (* A offers a steady 150 commits/s; B waits for the replica after each
     commit. Back to back, A saturated a 2-core host (primary, replica
     apply and clients), and B's commit-to-visible time then measured
     CPU scheduling: its p50 ranged 21-44 ms over five seeds. Updates
     rewrite the valid time of one of the client's own earlier patients
     (1-4 rows): with updates over the clinic patients' ~10 rows the
     replica's apply fell ever further behind. B pauses 0-20 ms before
     each commit: back to back, its commits locked onto one phase of the
     20 ms ship poll, and the phase decided a run's p50 (21 or 39 ms). *)
  let rates = [| 150.; 30. |] in
  let patterns =
    [| [ `Insert; `Insert; `Insert; `Insert; `Update ];
       [ `Insert; `Insert; `Insert; `Insert; `Insert; `Insert; `Insert; `Update;
         `Update; `Update ] |]
  in
  let warmup = [| 100; 10 |] in
  let added = ref 0 in
  let client c =
    let st = Random.State.make [| seed; c; 2 |] in
    let n = warmup.(c) + ops_for ~rate:rates.(c) ~seconds in
    let mine = ref [||] in
    let think () = if c = 1 then Random.State.float st 0.02 else 0. in
    let insert () =
      let patient =
        Printf.sprintf "Ingest%c%05d" (Char.chr (65 + c)) (Array.length !mine)
      in
      let rows = 1 + Random.State.int st 4 in
      mine := Array.append !mine [| (patient, rows) |];
      added := !added + rows;
      let tuples =
        List.init rows (fun _ ->
            presc_tuple
              { M.doctor = "Dr.Who"; patient;
                patientdob = Chronon.of_ymd 1970 1 1;
                drug = "Aspirin"; dosage = 1 + Random.State.int st 3;
                frequency = Span.of_hours 8; valid = random_element st })
      in
      { label = "insert"; kind = Write;
        sql =
          Printf.sprintf "INSERT INTO Prescription VALUES %s"
            (String.concat ", " tuples);
        affected = Some rows; await_replica = c = 1; think = think () }
    in
    let update () =
      let patient, rows = !mine.(Random.State.int st (Array.length !mine)) in
      { label = "update"; kind = Write;
        sql =
          Printf.sprintf
            "UPDATE Prescription SET dosage = %d, valid = '%s' WHERE patient \
             = '%s'"
            (1 + Random.State.int st 4)
            (Element.to_string (random_element st))
            patient;
        affected = Some rows; await_replica = c = 1; think = think () }
    in
    Array.map
      (function
        | `Update when !mine <> [||] -> update ()
        | _ -> insert ())
      (stratified st n patterns.(c))
  in
  let clients = [| client 0; client 1 |] in
  (* A is the load; B's commit-until-visible ops are the latency *)
  { name = "ingest_replicated"; setup = clinic_setup data; clients; warmup;
    latency = [| false; true |]; pace = [| Some rates.(0); None |];
    replica = true; probes = clinic_probes (Random.State.make [| seed; 99 |]);
    dump = "SELECT * FROM Prescription"; live_rows = prescriptions + !added }

(* --- history_scan: years-deep warehouse history, reads only ------------- *)

let window_groups s =
  let e = Chronon.add s (Span.of_days 365) in
  Printf.sprintf
    "SELECT dept, group_union(valid) FROM fact_history WHERE overlaps(valid, \
     '{[%s, %s]}'::Element) GROUP BY dept"
    (day_s s) (day_s e)

let quarter y q =
  let m = (3 * q) + 1 in
  let s = Chronon.of_ymd y m 1 in
  let e = if q = 3 then Chronon.of_ymd (y + 1) 1 1 else Chronon.of_ymd y (m + 3) 1 in
  Printf.sprintf
    "SELECT count(*) FROM fact_history WHERE overlaps(valid, '{[%s, %s]}'::Element)"
    (day_s s)
    (Chronon.to_string (Chronon.add e (Span.of_seconds (-1))))

let full_groups =
  "SELECT dept, count(*), min(id), max(id) FROM fact_history GROUP BY dept"

(* The k-th window starts in year k (mod 9) of the history and the k-th
   count covers quarter k (mod 40): the hot final year, which holds half
   the facts, gets its fixed share of every op list. *)
let window_op st k =
  read "window_union"
    (window_groups
       (Chronon.add
          (Chronon.of_ymd (start_year + (k mod (years - 1))) 1 1)
          (Span.of_days (Random.State.int st 365))))

let quarter_op k =
  let k = k mod (4 * years) in
  read "quarter_count" (quarter (start_year + (k / 4)) (k mod 4))

(* The load goes in 20k-row statements, so each is followed by one
   auto-checkpoint (every 10k log records): five checkpoints instead of
   ten, which takes a quarter off the set-up time. *)
let history ~seed ~seconds =
  let rows = W.deep_history_rows ~seed ~start_year ~years ~rows:history_rows () in
  let tuples =
    List.map (fun (id, dept, el) -> Printf.sprintf "(%d, '%s', '%s')" id dept el) rows
  in
  let warmup = 10 in
  let n = warmup + ops_for ~rate:22. ~seconds in
  let client c =
    let st = Random.State.make [| seed; c; 3 |] in
    (* the clients walk the strata from opposite ends *)
    let windows = ref (c * 4) and quarters = ref (c * 20) in
    Array.map
      (function
        | `Window ->
          incr windows;
          window_op st !windows
        | `Quarter ->
          incr quarters;
          quarter_op !quarters
        | `Full -> read "full_groups" full_groups)
      (stratified st n [ `Window; `Window; `Quarter; `Quarter; `Full ])
  in
  let pst = Random.State.make [| seed; 99 |] in
  { name = "history_scan";
    setup =
      (W.deep_schema ~partitioned:true ~start_year ~years ()
      :: insert_batches W.deep_table 20000 tuples)
      @ [ "ANALYZE" ];
    clients = [| client 0; client 1 |]; warmup = [| warmup; warmup |];
    latency = [| true; true |]; pace = [| None; None |]; replica = false;
    probes =
      List.init 4 (fun k -> (window_op pst (2 * k)).sql)
      @ List.init 4 (fun k -> (quarter_op (11 * k)).sql)
      @ [ full_groups ];
    dump = "SELECT * FROM fact_history"; live_rows = history_rows }

let make name ~seed ~seconds =
  match name with
  | "clinic" -> Some (clinic ~seed ~seconds)
  | "history_scan" -> Some (history ~seed ~seconds)
  | "ingest_replicated" -> Some (ingest ~seed ~seconds)
  | _ -> None
