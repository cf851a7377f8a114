(* perfbench: the repository benchmark.

   One run measures one workload for a fixed time and prints, as its
   last stdout line, a JSON object with the end-to-end metrics
   (untraced run) or the per-layer metrics (traced run). It measures
   every layer from outside, by timing calls into the public functions
   of lib/*, and it checks every output it produces. [run.py] builds
   this program, runs it and validates the result against
   BENCHMARK.json.

     bench.exe --workload W [--seed N] [--workload-seed M]
               [--seconds S] [--trace 0|1]

   Two seeds. The workload seed M (default 1) makes the inputs: the
   SoC generator seed, the serve corpus seed and the client session
   seeds. It is fixed by default so that quality metrics are the same
   in every run and any change in them is a finding; pass another one
   to confirm a claim on inputs it was not tuned on. The run seed N
   varies what a run may vary without changing its inputs: the
   random-simulation vectors of the functional audit and where the
   serve request stream starts in the mix.

   Workloads, and why each exists (each runs from one process with at
   most two domains):

   - paper-44-3: the paper's own experiment. The five table circuits
     (C2670 C3540 C5315 C6288 C7552) in DAG mode through Mapper.map
     against 44-3, mapped from the generated networks as
     [techmap map <name>] does. Labeling against 3,336 patterns is
     most of each pass, so match-enumeration work shows here.
   - soc-dag: synthetic_soc ~nodes:50000 with lib2 through
     Subject.of_network, Arena.of_subject and Parmap.map_arena
     ~jobs:2. The only workload with a large graph, a small library,
     the arena DAG engine and level-parallel labeling; the match
     cache loses here.
   - soc-cut: synthetic_soc ~nodes:20000 with lib2 through
     Arena_cuts.map ~jobs:2 ~priority:8. It bypasses Matchdb and the
     structural matcher entirely, so a pattern-matcher change should
     not move it; cut-cone building in the cover shows here.
   - serve-lib2: an in-process Server (jobs=1, lib2) and two
     closed-loop clients (callers wait for replies) sending the
     48-payload random_dag BLIF corpus in a 3:1:1 mix of map+audit,
     check and sta requests. Steady state only: no overload burst, no
     fault plan. The only workload with BLIF parsing, the protocol and
     queueing on the latency path.

   End-to-end metrics. Every run reports all nine, and none may read
   0, so each needs a meaning on every workload. Times and rates are
   scaled to a reference host speed (see "Host speed" below):

   - setup_s: what a run does once before its first measured request,
     the median over repeated set-ups: make the inputs (the circuit
     generators; on serve-lib2 the BLIF corpus), build the library and
     prepare it (Libraries.*_like, Matchdb.prepare,
     Boolean_match.prepare), and on serve-lib2 start the daemon up to
     its first reply. Set-ups are taken at both ends of the run (a
     fixed number before the passes, a second's worth after), so
     their median sees the machine as the measured phase does.
   - pass_s: decomposing and mapping the whole input set once, the
     median over passes. Audits are not part of a pass; their cost is
     the check layer. On serve-lib2 a pass is one cycle of the request
     mix (48 payloads x 5 verb slots = 240 requests) under the two
     clients.
   - p50_ms, p99_ms, throughput_rps: client-side latency, send to
     reply, on serve-lib2. p99_ms is taken over consecutive windows of
     1,100 requests (eleven samples beyond the 99th percentile in
     each) and the median over the windows is reported, so that one
     burst of machine noise moves one window, not the result. On a
     batch workload a request is one pass: p50_ms and p99_ms are both
     the median pass and throughput_rps is passes per second.
   - peak_rss_mb: Resource.peak_rss_bytes once the first pass and its
     audit are done (later passes only move it by GC timing).
   - delay_geomean, area_geomean: Sta.analyze worst delay and netlist
     area over the inputs; deterministic.
   - ok_frac: results that passed the check, over results attempted.

   Host speed. A shared host's speed drifts: on a 2-vCPU Xeon VM, over
   ten minutes of back-to-back runs, the median paper-44-3 pass went
   from 8.5 to 12 s and back, and the runs of one set spread by up to
   a quarter of their median, which is the benchmark's whole bound. A
   run therefore also times a fixed kernel, the probe (hashed
   read-modify-writes into a 1 MiB table: no allocation, no code of
   lib/, on as many domains as the workload's engine uses), three
   times after every input of every batch pass and after every
   quarter of the measured serve phase, and reports every time metric
   (s, ms, ns; 1/s inversely) scaled by probe_ref_s over the run's
   median probe: the time the run would have taken with the host at
   the speed where the probe takes 50 ms. The probe does not depend
   on the code under test, so a change to the program moves the
   scaled times as it moves the measured ones. What the scaling
   cannot tell apart from a change of host speed: a change that
   leaves work running while the probe runs (it slows the probe and
   so shrinks the scaled times). host.probe_ms (traced run), and the
   speed_factor and raw pass_times on the info line, show the
   unscaled figures.

   Metric choices left out on purpose. A set-up of the library alone
   takes about a millisecond for lib2, so a set-up metric made of it
   is mostly timer and scheduler noise: set-up here is the run's whole
   set-up, with the library part still reported per layer. A p99 over
   the handful of passes a batch run makes is its slowest pass, i.e.
   noise; batch workloads report no per-operation percentiles. No
   max-rate search is made: the serve clients are closed loop, and the
   rate they reach is throughput_rps.

   Correctness. The first pass of every batch run is audited result by
   result with the three Check auditors (structural, then delay
   against the engine's predicted arrivals, then 64-lane functional
   simulation; cut results with Cut_mapper.predicted_arrivals); every
   later result must be identical to the audited one (a digest of the
   netlist plus the exact record). Every served reply is compared with
   local ground truth computed from the same BLIF bytes the daemon
   receives. The exact record (subject nodes, matches, gates,
   duplication, covered nodes, delay and area bit for bit) must repeat
   across passes; run.py also compares it across runs of the same
   code. Any failure lowers ok_frac and makes the exit status 1.

   Layer metrics (traced run), each with the end-to-end metric it
   should move. Per pass (on serve-lib2, per replayed cycle of 240
   requests), medians over passes:

   - genlib.build_s, matchdb.prepare_s, boolean_match.prepare_s:
     Libraries.*_like, Matchdb.prepare, Boolean_match.prepare (through
     Matchdb.boolean) -> setup_s everywhere.
   - input.read_s: how the input network is obtained. Blif.read_string
     of the payloads on serve-lib2 (-> p99_ms, throughput_rps); the
     generator (Iscas_like, synthetic_soc), once per set-up, on batch
     workloads (-> setup_s).
   - subject.decompose_s, subject.nodes: Subject.of_network -> pass_s
     on the soc workloads, p50_ms on serve-lib2.
   - engine.map_s, engine.label_s, engine.cover_s,
     engine.ns_per_match: the workload's mapping engine. Mapper.map on
     paper-44-3 and serve-lib2 (-> pass_s, p50_ms, throughput_rps),
     Parmap.map_arena on soc-dag (-> pass_s), both with the label and
     cover seconds they return; Arena_cuts.map on soc-cut (-> pass_s,
     peak_rss_mb), which has no public label/cover split: its label is
     the sum of its per-level sweep seconds, its cover the rest of the
     call. map_s is the whole engine call.
   - mapper.matches_tried, mapper.cache_lookups,
     mapper.cache_hit_rate: Mapper.map (paper-44-3, serve-lib2).
   - parmap.matches_tried, parmap.cache_lookups,
     parmap.cache_hit_rate: Parmap.map_arena (soc-dag). Under two
     domains the hit split varies from run to run (per-worker caches).
   - parmap.chunks, parmap.parallel_levels: the Parmap pool's
     par_stats, from Parmap.map_arena and Arena_cuts.map.
   - arena_cuts.matches_evaluated, arena_cuts.matched_nodes: soc-cut.
   - netlist.gates, netlist.duplicated, netlist.covered_nodes ->
     area_geomean, peak_rss_mb everywhere.
   - check.structural_s, check.delay_s, check.functional_s: the three
     Check auditors -> p50_ms, p99_ms on serve-lib2 (map and check
     requests audit); reported only on batch (every traced pass is
     audited).
   - sta.analyze_s: Sta.analyze of every result (it gives the reported
     delay) -> p99_ms, throughput_rps on serve-lib2.
   - request.map_p50_ms, request.check_p50_ms, request.sta_p50_ms:
     median client latency per verb on serve-lib2; on batch, the pass,
     its audit and its STA.
   - request.overhead_ms: latency outside the compute layers. On
     serve-lib2 the median of client latency minus an in-process
     replay of the same request (protocol, queueing, threads); on
     batch, the pass minus decompose and the engine call (arena
     conversion, glue).
   - circuit.<name>.map_share, circuit.<name>.delay: the paper's five
     circuits on paper-44-3 (0 elsewhere) -> pass_s, delay_geomean.
   - gc.minor_mwords, gc.major_collections -> pass_s, peak_rss_mb.
   - trace.overhead_frac: traced over untraced pass_s (p50_ms on
     serve-lib2), minus 1, from the same run.
   - host.probe_ms: the run's median probe, unscaled (see "Host
     speed"); it moves with the host, not with the program.

   Every time metric is defined on every workload, so none reads a
   constant 0; counts and ratios of a layer a workload does not run
   are 0. *)

open Dagmap_logic
open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits
open Dagmap_check
open Dagmap_timing
open Dagmap_obs
open Dagmap_serve
module Blif = Dagmap_blif.Blif
module Cut_mapper = Dagmap_cutmap.Cut_mapper
module Arena_cuts = Dagmap_cutmap.Arena_cuts

let jobs = 2
let clients = 2
let priority = 8
let default_seed = 1

(* The run seed (see the header): audit vectors, stream offset. *)
let run_seed = ref default_seed

(* ---------- statistics ---------- *)

(* Nearest-rank quantile of a non-empty list. *)
let quantile q l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples";
  let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) i))

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then invalid_arg "median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean l =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l
       /. float_of_int (List.length l))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------- per-pass layer accounting ---------- *)

(* Layer quantities of the pass in progress, summed over the calls
   that make up the pass. A layer call is timed with the monotonic
   clock and, in the traced run, wrapped in a span; the spans nest
   only around library-internal spans, so a layer's span duration is
   its self time among the benchmark's layers. *)
let acc : (string, float) Hashtbl.t ref = ref (Hashtbl.create 32)

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let add k v = Hashtbl.replace !acc k (v +. get !acc k)
let count k n = add k (float_of_int n)

(* "subject.decompose_s" is recorded as span "subject.decompose". *)
let span_name k =
  if Filename.check_suffix k "_s" then Filename.chop_suffix k "_s" else k

let timed k f =
  let t0 = Clock.now () in
  let r = Span.with_span ~cat:"perfbench" (span_name k) f in
  add k (Clock.since t0);
  r

let fresh_pass () = acc := Hashtbl.create 32

(* Failed checks; client threads report here too. *)
let failures = Atomic.make 0
let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: FAILED: " ^ m);
      Atomic.incr failures)
    fmt

(* Values that must repeat exactly across passes and runs of the same
   code (floats recorded bit for bit). *)
type exact = (string * string) list

let check_exact ~what ~reference got =
  if reference <> got then
    match
      List.find_opt (fun (k, v) -> List.assoc_opt k reference <> Some v) got
    with
    | Some (k, v) ->
      fail "%s: %s=%s differs from the audited pass (%s)" what k v
        (Option.value ~default:"missing" (List.assoc_opt k reference))
    | None -> fail "%s: exact record differs from the audited pass" what

(* ---------- set-up ---------- *)

let build_library = function
  | "44-3" -> Libraries.lib44_3_like ()
  | _ -> Libraries.lib2_like ()

let prepare libname =
  let lib = timed "genlib.build_s" (fun () -> build_library libname) in
  let db = timed "matchdb.prepare_s" (fun () -> Matchdb.prepare lib) in
  let bdb = timed "boolean_match.prepare_s" (fun () -> Matchdb.boolean db) in
  (lib, db, bdb)

let setup_layers =
  [ "genlib.build_s"; "matchdb.prepare_s"; "boolean_match.prepare_s" ]

(* Run [once] [n] times, or, with [~for_s], until that many seconds
   have passed (at least once); keep the last result and, per
   repetition, its seconds and layer table. Set-ups before the passes
   use a fixed count, so that the heap a run carries into its passes,
   and so its peak memory, does not depend on how fast the machine
   was; the ones after the passes take a time budget, so that a cheap
   set-up is sampled often enough for its median to settle. *)
let repeat_setup ?(for_s = 0.0) n once =
  let t_end = Clock.now () +. for_s in
  let rec go i reps =
    fresh_pass ();
    let r, dt = Clock.time once in
    let reps = (dt, !acc) :: reps in
    if i + 1 >= n && Clock.now () >= t_end then (r, List.rev reps)
    else go (i + 1) reps
  in
  go 0 []

(* Seconds of set-up sampled after the passes. *)
let late_setup_s = 1.0

(* ---------- checking one result ---------- *)

(* Check.audit, one auditor at a time so each is timed on its own.
   Like Check.audit, timing and simulation are skipped on a
   structurally broken netlist. *)
let audit ~what sg ~predicted nl =
  let issues =
    match timed "check.structural_s" (fun () -> Check.structural nl) with
    | _ :: _ as s -> s
    | [] ->
      timed "check.delay_s" (fun () -> Check.delay ~predicted nl)
      @ timed "check.functional_s" (fun () ->
            Check.functional ~seed:!run_seed sg nl)
  in
  List.iter
    (fun i ->
      fail "%s: audit: %s" what (Format.asprintf "%a" Check.pp_issue i))
    issues;
  issues = []

let covered_nodes nl =
  Array.fold_left
    (fun s i -> s + Array.length i.Netlist.covers)
    0 nl.Netlist.instances

(* A digest of everything a netlist is made of, so that a result can
   be checked identical to an audited one without auditing it again. *)
let netlist_digest nl =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( Array.map
              (fun i ->
                (i.Netlist.gate.Gate.gate_name, i.Netlist.inputs,
                 i.Netlist.subject_root, i.Netlist.covers))
              nl.Netlist.instances,
            nl.Netlist.outputs )
          []))

(* One mapped input of a pass, with what the checks need. *)
type mapped = {
  name : string;
  sg : Subject.t;
  nl : Netlist.t;
  predicted : (string * float) list;
  matches : int;
  map_s : float;  (* decompose and map of this input *)
}

(* What is checked and reported about one mapped input. *)
type verdict = {
  audited : bool;  (* passed the audit (true when not audited) *)
  nodes : int;
  matches : int;
  gates : int;
  dup : int;
  covered : int;
  delay : float;  (* STA worst arrival *)
  area : float;
}

let exact_of name v =
  let i k n = (name ^ "." ^ k, string_of_int n)
  and f k x = (name ^ "." ^ k, Printf.sprintf "%h" x) in
  [ i "subject_nodes" v.nodes; i "matches" v.matches; i "gates" v.gates;
    i "duplicated" v.dup; i "covered_nodes" v.covered; f "delay" v.delay;
    f "area" v.area ]

(* Optionally audit, then time STA and count one mapped input. *)
let verify ~run_audit m =
  let audited =
    (not run_audit) || audit ~what:m.name m.sg ~predicted:m.predicted m.nl
  in
  let rep = timed "sta.analyze_s" (fun () -> Sta.analyze m.nl) in
  let v =
    { audited; nodes = Subject.num_nodes m.sg; matches = m.matches;
      gates = Netlist.num_gates m.nl; dup = Netlist.duplication m.nl;
      covered = covered_nodes m.nl; delay = rep.Sta.worst_delay;
      area = Netlist.area m.nl }
  in
  count "subject.nodes" v.nodes;
  count "netlist.gates" v.gates;
  count "netlist.duplicated" v.dup;
  count "netlist.covered_nodes" v.covered;
  v

(* ---------- results ---------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type outcome = {
  attempted : int;
  ok : int;
  metrics : metric list;
  exact : exact;
  info : (string * string) list;
}

(* Per-pass layer tables -> the median over passes of [f table]. *)
let median_of tables f = median (List.map f tables)

let layer_medians tables names =
  List.map (fun (k, unit) -> metric k unit (median_of tables (fun t -> get t k)))
    names

let setup_metrics reps =
  layer_medians (List.map snd reps) (List.map (fun k -> (k, "s")) setup_layers)

(* Quantities accumulated per pass, reported as medians over passes. *)
let pass_layers =
  [ ("subject.decompose_s", "s"); ("engine.map_s", "s");
    ("engine.label_s", "s"); ("engine.cover_s", "s");
    ("check.structural_s", "s"); ("check.delay_s", "s");
    ("check.functional_s", "s"); ("sta.analyze_s", "s");
    ("subject.nodes", "count"); ("mapper.matches_tried", "count");
    ("mapper.cache_lookups", "count"); ("parmap.matches_tried", "count");
    ("parmap.cache_lookups", "count"); ("parmap.chunks", "count");
    ("parmap.parallel_levels", "count");
    ("arena_cuts.matches_evaluated", "count");
    ("arena_cuts.matched_nodes", "count"); ("netlist.gates", "count");
    ("netlist.duplicated", "count"); ("netlist.covered_nodes", "count");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count") ]

(* Per-pass ratios, then the median over passes. *)
let derived_medians tables =
  let matches t =
    get t "mapper.matches_tried" +. get t "parmap.matches_tried"
    +. get t "arena_cuts.matches_evaluated"
  in
  let hit_rate layer t =
    ratio (get t (layer ^ ".cache_hits")) (get t (layer ^ ".cache_lookups"))
  in
  [ metric "engine.ns_per_match" "ns"
      (median_of tables (fun t -> 1e9 *. ratio (get t "engine.label_s") (matches t)));
    metric "mapper.cache_hit_rate" "ratio" (median_of tables (hit_rate "mapper"));
    metric "parmap.cache_hit_rate" "ratio" (median_of tables (hit_rate "parmap")) ]

(* The paper's table circuits, reported one by one on paper-44-3. *)
let circuit_names = [ "C2670"; "C3540"; "C5315"; "C6288"; "C7552" ]

let circuit_metrics tables =
  let map_s c t = get t ("circuit." ^ c ^ ".map_s") in
  let total t = List.fold_left (fun s c -> s +. map_s c t) 0.0 circuit_names in
  List.concat_map
    (fun c ->
      [ metric ("circuit." ^ c ^ ".map_share") "ratio"
          (median_of tables (fun t -> ratio (map_s c t) (total t)));
        metric ("circuit." ^ c ^ ".delay") "lib_units"
          (median_of tables (fun t -> get t ("circuit." ^ c ^ ".delay"))) ])
    circuit_names

let gc_sample () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let gc_delta (w0, c0) =
  let w1, c1 = gc_sample () in
  add "gc.minor_mwords" ((w1 -. w0) /. 1e6);
  count "gc.major_collections" (c1 - c0)

let peak_rss_mb () = float_of_int (Resource.peak_rss_bytes ()) /. 1e6

(* ---------- host speed ---------- *)

(* The probe (see "Host speed" in the header). It calls nothing in
   lib/ and allocates nothing, so neither the code under test nor the
   heap it leaves behind changes its work; each 1 MiB table stays in
   a core's L2 cache. It runs on as many domains as the workload's
   engine ([probe_domains], one table each) and is timed until the
   last one ends, so that a two-domain workload is scaled by the
   speed of both cores. *)
let probe_words = 1 lsl 17
let probe_rounds = 12_000_000
let probe_ref_s = 0.050
let probe_domains = ref 1

let probe_tables =
  Array.init jobs (fun _ ->
      let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout probe_words in
      Bigarray.Array1.fill t 0;
      t)

(* Hashed read-modify-writes into one table. The annotation keeps the
   accesses inline rather than through the generic Bigarray path. *)
let probe_kernel (t : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) () =
  let h = ref 0x9e3779b9 in
  for i = 1 to probe_rounds do
    h := (!h lxor i) * 0x2545F4914F6CDD1D;
    h := !h lxor (!h lsr 29);
    let s = !h land (probe_words - 1) in
    t.{s} <- t.{s} + i
  done;
  ignore (Sys.opaque_identity t.{0})

(* Every probe time of the run, in seconds. *)
let probe_samples = ref []

let probe () =
  for _ = 1 to 3 do
    let _, dt =
      Clock.time (fun () ->
          let others =
            List.init (!probe_domains - 1) (fun k ->
                Domain.spawn (probe_kernel probe_tables.(k + 1)))
          in
          probe_kernel probe_tables.(0) ();
          List.iter Domain.join others)
    in
    probe_samples := dt :: !probe_samples
  done

let probe_median () = median !probe_samples

(* Scale a measured metric to the reference speed: times shrink when
   the probe ran slower than [probe_ref_s], rates grow. *)
let at_reference_speed m =
  let f = probe_ref_s /. probe_median () in
  match m.m_unit with
  | "s" | "ms" | "ns" -> { m with m_value = m.m_value *. f }
  | "1/s" -> { m with m_value = m.m_value /. f }
  | _ -> m

(* ---------- batch workloads ---------- *)

type batch = {
  libname : string;
  make_inputs : int -> (string * Network.t) list;  (* from the workload seed *)
  map_one : Matchdb.t -> Boolean_match.t -> string -> Network.t -> mapped;
  jobs : int;  (* domains the engine computes on *)
}

let engine_split ~label ~cover =
  add "engine.label_s" label;
  add "engine.cover_s" cover

let map_boxed db name net =
  let t0 = Clock.now () in
  let sg = timed "subject.decompose_s" (fun () -> Subject.of_network net) in
  let r = timed "engine.map_s" (fun () -> Mapper.map Mapper.Dag db sg) in
  let run = r.Mapper.run in
  engine_split ~label:run.Mapper.label_seconds ~cover:run.Mapper.cover_seconds;
  count "mapper.matches_tried" run.Mapper.matches_tried;
  count "mapper.cache_lookups" run.Mapper.cache_lookups;
  count "mapper.cache_hits" run.Mapper.cache_hits;
  { name; sg; nl = r.Mapper.netlist; predicted = Mapper.predicted_arrivals r;
    matches = run.Mapper.matches_tried; map_s = Clock.since t0 }

let par_counts (par : Parmap.par_stats) =
  count "parmap.chunks" par.Parmap.chunks;
  count "parmap.parallel_levels" par.Parmap.parallel_levels

let map_paper db _bdb name net = map_boxed db name net

let map_arena db _bdb name net =
  let t0 = Clock.now () in
  let sg = timed "subject.decompose_s" (fun () -> Subject.of_network net) in
  let a = Arena.of_subject sg in
  let r, par =
    timed "engine.map_s" (fun () ->
        Parmap.map_arena ~jobs ~subject:sg Mapper.Dag db a)
  in
  let run = r.Mapper.run in
  engine_split ~label:run.Mapper.label_seconds ~cover:run.Mapper.cover_seconds;
  count "parmap.matches_tried" run.Mapper.matches_tried;
  count "parmap.cache_lookups" run.Mapper.cache_lookups;
  count "parmap.cache_hits" run.Mapper.cache_hits;
  par_counts par;
  { name; sg; nl = r.Mapper.netlist; predicted = Mapper.predicted_arrivals r;
    matches = run.Mapper.matches_tried; map_s = Clock.since t0 }

(* Arena_cuts.map reports per-level seconds of its labeling sweep;
   the rest of the call (buffers, pool start and stop,
   Cut_mapper.cover) is counted as its cover. *)
let map_cuts _db bdb name net =
  let t0 = Clock.now () in
  let sg = timed "subject.decompose_s" (fun () -> Subject.of_network net) in
  let a = Arena.of_subject sg in
  let (r, par), map_s =
    Clock.time (fun () ->
        timed "engine.map_s" (fun () ->
            Arena_cuts.map ~jobs ~priority ~subject:sg bdb a))
  in
  let label = Array.fold_left ( +. ) 0.0 par.Parmap.level_seconds in
  engine_split ~label ~cover:(map_s -. label);
  count "arena_cuts.matches_evaluated" r.Cut_mapper.matches_evaluated;
  count "arena_cuts.matched_nodes" r.Cut_mapper.matched_nodes;
  par_counts par;
  { name; sg; nl = r.Cut_mapper.netlist;
    predicted = Cut_mapper.predicted_arrivals r;
    matches = r.Cut_mapper.matches_evaluated; map_s = Clock.since t0 }

let soc nodes seed = [ ("soc", Generators.synthetic_soc ~seed ~nodes ()) ]

let batch_of_workload = function
  | "paper-44-3" ->
    { libname = "44-3"; make_inputs = (fun _ -> Iscas_like.table_circuits ());
      map_one = map_paper; jobs = 1 }
  | "soc-dag" ->
    { libname = "lib2"; make_inputs = soc 50000; map_one = map_arena; jobs }
  | "soc-cut" ->
    { libname = "lib2"; make_inputs = soc 20000; map_one = map_cuts; jobs }
  | w -> invalid_arg ("batch_of_workload " ^ w)

type pass = { traced : bool; secs : float; table : (string, float) Hashtbl.t }

(* A batch run: two set-ups, then passes until [seconds] of passes are
   measured, then [late_setup_s] of set-ups. In the traced run every
   other pass is traced, and every traced pass is audited so that the
   check layer is timed. *)
let run_batch ~seed ~seconds ~trace workload =
  let b = batch_of_workload workload in
  probe_domains := b.jobs;
  let setup ?for_s n =
    repeat_setup ?for_s n (fun () ->
        let inputs = timed "input.read_s" (fun () -> b.make_inputs seed) in
        let _, db, bdb = prepare b.libname in
        (inputs, db, bdb))
  in
  let (inputs, db, bdb), reps_before = setup 2 in
  probe ();
  (* At least three untraced passes, so that one outlier does not move
     the median. A pass of paper-44-3 takes over half the budget, so
     this rule, not the budget, sets the length of its runs. *)
  let min_passes = if trace then 5 else 3 in
  let passes = ref [] in
  let reference = ref None in
  let delays = ref [] and areas = ref [] in
  let ok = ref 0 and attempted = ref 0 in
  let peak_mb = ref 0.0 in
  let rec loop i measured last_cost =
    if i < min_passes || measured +. last_cost <= seconds then begin
      let traced = trace && i mod 2 = 1 in
      let run_audit = i = 0 || traced in
      Span.set_enabled traced;
      Gc.compact ();
      fresh_pass ();
      let gc0 = gc_sample () in
      (* Each input is timed on its own, with a probe after it. *)
      let secs = ref 0.0 in
      let results =
        List.map
          (fun (name, net) ->
            let m, dt = Clock.time (fun () -> b.map_one db bdb name net) in
            secs := !secs +. dt;
            probe ();
            m)
          inputs
      in
      let secs = !secs in
      gc_delta gc0;
      let checked =
        List.map
          (fun m ->
            let v = verify ~run_audit m in
            if List.mem m.name circuit_names then begin
              add ("circuit." ^ m.name ^ ".map_s") m.map_s;
              add ("circuit." ^ m.name ^ ".delay") v.delay
            end;
            (v, exact_of m.name v, (m.name, netlist_digest m.nl)))
          results
      in
      Span.set_enabled false;
      let ex = List.concat_map (fun (_, e, _) -> e) checked in
      let digests = List.map (fun (_, _, d) -> d) checked in
      (* A result is correct when it passed its own audit, if it had
         one, and is identical to the first pass's, which passed. *)
      let audited_ok = List.for_all (fun (v, _, _) -> v.audited) checked in
      let same =
        match !reference with
        | None ->
          reference := Some (ex, digests, audited_ok);
          delays := List.map (fun (v, _, _) -> v.delay) checked;
          areas := List.map (fun (v, _, _) -> v.area) checked;
          audited_ok
        | Some (r, d, ref_ok) ->
          let before = Atomic.get failures in
          check_exact ~what:workload ~reference:r ex;
          List.iter2
            (fun (name, d0) (_, d1) ->
              if d0 <> d1 then
                fail "%s: netlist of %s differs from the audited pass" workload
                  name)
            d digests;
          ref_ok && Atomic.get failures = before
      in
      List.iter
        (fun (v, _, _) ->
          incr attempted;
          if v.audited && same then incr ok)
        checked;
      passes := { traced; secs; table = !acc } :: !passes;
      if i = 0 then peak_mb := peak_rss_mb ();
      loop (i + 1) (measured +. secs) secs
    end
  in
  loop 0 0.0 0.0;
  let setup_reps = reps_before @ snd (setup ~for_s:late_setup_s 1) in
  let passes = List.rev !passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let pass_s = median (List.map (fun p -> p.secs) untraced) in
  let metrics =
    if not trace then
      [ metric "setup_s" "s" (median (List.map fst setup_reps));
        metric "pass_s" "s" pass_s;
        metric "peak_rss_mb" "MB" !peak_mb;
        metric "delay_geomean" "lib_units" (geomean !delays);
        metric "area_geomean" "lib_units" (geomean !areas);
        metric "ok_frac" "ratio" (ratio (float_of_int !ok) (float_of_int !attempted));
        metric "p50_ms" "ms" (1000.0 *. pass_s);
        metric "p99_ms" "ms" (1000.0 *. pass_s);
        metric "throughput_rps" "1/s" (1.0 /. pass_s) ]
    else begin
      let traced = List.filter (fun p -> p.traced) passes in
      let tables = List.map (fun p -> p.table) traced in
      let ms f = median (List.map (fun p -> 1000.0 *. f p) traced) in
      let audit_s t =
        get t "check.structural_s" +. get t "check.delay_s"
        +. get t "check.functional_s"
      in
      setup_metrics setup_reps
      @ layer_medians (List.map snd setup_reps) [ ("input.read_s", "s") ]
      @ layer_medians tables pass_layers
      @ derived_medians tables
      @ [ metric "request.map_p50_ms" "ms" (ms (fun p -> p.secs));
          metric "request.check_p50_ms" "ms" (ms (fun p -> audit_s p.table));
          metric "request.sta_p50_ms" "ms" (ms (fun p -> get p.table "sta.analyze_s"));
          metric "request.overhead_ms" "ms"
            (ms (fun p ->
                 p.secs -. get p.table "subject.decompose_s"
                 -. get p.table "engine.map_s")) ]
      @ circuit_metrics tables
      @ [ metric "trace.overhead_frac" "ratio"
            ((median (List.map (fun p -> p.secs) traced) /. pass_s) -. 1.0) ]
    end
  in
  { attempted = !attempted; ok = !ok; metrics;
    exact = (match !reference with Some (e, _, _) -> e | None -> []);
    info =
      [ ("passes", string_of_int (List.length passes));
        ("pass_times",
         String.concat "," (List.map (fun p -> Printf.sprintf "%.3f" p.secs) passes));
        ("setup_reps", string_of_int (List.length setup_reps));
        ("jobs", string_of_int b.jobs);
        ("clients", "0") ] }

(* ---------- serve-lib2 ---------- *)

let corpus_size = 48
let verb_slots = 5
let cycle = corpus_size * verb_slots  (* one pass of the request mix *)

(* p99 is taken over windows of this many requests: eleven samples lie
   beyond the 99th percentile of each. *)
let p99_window = 1100

(* Parts of the measured serve phase; see run_serve. *)
let serve_slices = 4

(* Request [i] of the stream: payload [i mod 48]; verb slot [i mod 5]
   gives the 3:1:1 mix of audited map, check and sta. *)
let request_of i =
  let verb =
    match i mod verb_slots with
    | 0 | 1 | 2 -> Proto.Map
    | 3 -> Proto.Check
    | _ -> Proto.Sta
  in
  (i mod corpus_size, verb)

let corpus seed =
  Array.init corpus_size (fun i ->
      let nodes = 30 + (i * 17 mod 91) in
      Blif.write_network
        (Generators.random_dag ~seed:(seed + i) ~inputs:12 ~outputs:8 ~nodes ()))

let payload_name ci = Printf.sprintf "p%02d" ci

(* The daemon's compute for one request, replayed in process: BLIF
   parse, decompose, map, then the verb's audit or STA. *)
let replay db ci payload verb =
  let net =
    timed "input.read_s" (fun () -> Blif.read_string ~file:"<payload>" payload)
  in
  verify ~run_audit:(verb <> Proto.Sta) (map_boxed db (payload_name ci) net)

(* Local ground truth for every payload, computed from the same bytes
   the daemon receives. *)
let ground_truth db payloads =
  Array.mapi
    (fun ci payload ->
      let v = replay db ci payload Proto.Map in
      if not v.audited then fail "serve: local audit failed on payload %d" ci;
      v)
    payloads

(* Replies carry floats through %.12g JSON. *)
let close_to a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)

let reply_ok (t : verdict) verb reply =
  let num k = Option.bind (Json.member k reply) Json.to_number in
  let int_is k v = num k = Some (float_of_int v) in
  let float_is k v = match num k with Some x -> close_to v x | None -> false in
  let str k = Option.bind (Json.member k reply) Json.to_string_value in
  str "status" = Some "ok"
  && float_is "delay" t.delay && float_is "area" t.area
  && int_is "gates" t.gates && int_is "duplicated" t.dup
  &&
  match verb with
  | Proto.Map ->
    str "audit" = Some "ok" && int_is "subject_nodes" t.nodes
    && int_is "matches_tried" t.matches
  | Proto.Check -> Json.member "clean" reply = Some (Json.Bool true)
  | _ -> float_is "worst_delay" t.delay

type sample = {
  s_abs : int;         (* position in the request stream *)
  s_index : int;       (* position within its measured phase *)
  s_verb : Proto.verb;
  s_lat : float;       (* client-side seconds, send to reply *)
  s_done : float;      (* completion time (monotonic) *)
  s_ok : bool;
}

(* Sockets and traces go to $PERFBENCH_OUT (run.py sets it). *)
let out_file name =
  Filename.concat
    (Option.value ~default:".bench_out" (Sys.getenv_opt "PERFBENCH_OUT"))
    name

(* Per-cycle wall time: cycle [w] ends when every request of cycles
   0..w has completed. *)
let cycle_times t0 samples =
  let full = List.length samples / cycle in
  let ends = Array.make (max 1 full) neg_infinity in
  List.iter
    (fun s ->
      for w = s.s_index / cycle to full - 1 do
        if s.s_done > ends.(w) then ends.(w) <- s.s_done
      done)
    samples;
  List.init full (fun w -> ends.(w) -. if w = 0 then t0 else ends.(w - 1))

(* The median over consecutive windows of [p99_window] completed
   requests of each window's p99. *)
let windowed_p99 samples =
  let by_done = List.sort (fun a b -> compare a.s_done b.s_done) samples in
  let rec windows acc cur n = function
    | [] -> List.rev acc
    | s :: rest ->
      let cur = (1000.0 *. s.s_lat) :: cur in
      if n + 1 = p99_window then windows (quantile 0.99 cur :: acc) [] 0 rest
      else windows acc cur (n + 1) rest
  in
  median (windows [] [] 0 by_done)

let run_serve ~seed ~seconds ~trace =
  let sock = out_file (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let start_daemon lib =
    let srv =
      Server.create
        { Server.socket_path = sock; jobs = 1; queue_max = 8;
          libraries = [ ("lib2", lib) ]; resolve_circuit = None;
          verbose = false; io_timeout_s = 30.0; idle_timeout_s = 0.0;
          job_budget_s = 0.0; faults = Faultplan.none }
    in
    let th = Thread.create Server.run srv in
    let c = Client.connect ~timeout_s:30.0 sock in
    let pong = Client.request c (Proto.request Proto.Ping) in
    Client.close c;
    if Option.bind (Json.member "status" pong) Json.to_string_value <> Some "ok"
    then fail "serve: daemon did not answer ping";
    (srv, th)
  in
  let stop_daemon (srv, th) =
    Server.stop srv;
    Thread.join th
  in
  (* One set-up: the corpus, local library preparation, and daemon
     start to its first reply. Every daemon but the one that serves
     the run is drained again at once. *)
  let setup_rep () =
    let payloads = corpus seed in
    let lib, db, _ = prepare "lib2" in
    (payloads, db, start_daemon lib)
  in
  let sampled_setups ?for_s n =
    snd
      (repeat_setup ?for_s n (fun () ->
           let _, _, d = setup_rep () in
           stop_daemon d))
  in
  let reps_before = sampled_setups 4 in
  probe ();
  let (payloads, db, daemon), reps_serving = repeat_setup 1 setup_rep in
  fresh_pass ();
  let truth = ground_truth db payloads in
  let attempted, ok, metrics =
    Fun.protect ~finally:(fun () -> stop_daemon daemon) @@ fun () ->
    (* The run seed picks where in the mix the stream starts. *)
    let next = Atomic.make ((((!run_seed * 37) mod cycle) + cycle) mod cycle) in
    (* Closed loop: each client sends its next request when the previous
       reply is in. Requests are drawn from one shared counter so the
       mix cycles in order; a phase ends once [deadline] has passed and
       at least [min_samples] requests completed ([hard_stop] bounds a
       stalled daemon). *)
    let phase ~deadline ~min_samples ~hard_stop =
      let first = Atomic.get next in
      let samples = Array.make clients [] in
      let completed = Atomic.make 0 in
      let client k =
        let s =
          Client.session ~timeout_s:30.0
            ~retry:{ Client.default_retry with Client.attempts = 1 }
            ~seed:(seed + k) sock
        in
        let rec go acc =
          let now = Clock.now () in
          if (now >= deadline && Atomic.get completed >= min_samples)
             || now >= hard_stop
          then acc
          else begin
            let i = Atomic.fetch_and_add next 1 in
            let ci, verb = request_of i in
            let req =
              { (Proto.request verb) with Proto.lib = Some "lib2";
                audit = verb = Proto.Map }
            in
            let t0 = Clock.now () in
            let reply =
              Span.with_span ~cat:"perfbench" "serve.request" (fun () ->
                  Client.call s ~payload:payloads.(ci) req)
            in
            let t1 = Clock.now () in
            let ok =
              match reply with
              | Ok r -> truth.(ci).audited && reply_ok truth.(ci) verb r
              | Error _ -> false
            in
            if not ok then
              fail "serve request %d (%s payload %d): %s" i
                (Proto.verb_name verb) ci
                (match reply with Ok r -> Json.to_string r | Error m -> m);
            Atomic.incr completed;
            go
              ({ s_abs = i; s_index = i - first; s_verb = verb;
                 s_lat = t1 -. t0; s_done = t1; s_ok = ok }
              :: acc)
          end
        in
        let r = go [] in
        Client.end_session s;
        samples.(k) <- r
      in
      let t0 = Clock.now () in
      let threads = List.init clients (Thread.create client) in
      List.iter Thread.join threads;
      (t0, Clock.since t0, List.concat (Array.to_list samples))
    in
    (* Steady state: one unmeasured warm-up cycle first. *)
    let warm_t = Clock.now () in
    ignore (phase ~deadline:warm_t ~min_samples:cycle ~hard_stop:(warm_t +. 60.0));
    probe ();
    let measure ~min_samples secs =
      let now = Clock.now () in
      phase ~deadline:(now +. secs) ~min_samples ~hard_stop:(now +. secs +. 60.0)
    in
    let lat_ms samples = List.map (fun s -> 1000.0 *. s.s_lat) samples in
    let n_ok samples = List.length (List.filter (fun s -> s.s_ok) samples) in
    let geo f = geomean (Array.to_list (Array.map f truth)) in
    if not trace then begin
      (* The phase is cut into [serve_slices] parts, with a probe after
         each, so that the probes follow the host through it; together
         the parts hold at least three p99 windows. *)
      let parts =
        List.init serve_slices (fun _ ->
            let part =
              measure
                ~min_samples:(((3 * p99_window) + serve_slices - 1) / serve_slices)
                (seconds /. float_of_int serve_slices)
            in
            probe ();
            part)
      in
      let samples = List.concat_map (fun (_, _, s) -> s) parts in
      let wall = List.fold_left (fun acc (_, w, _) -> acc +. w) 0.0 parts in
      let n = List.length samples in
      let cycles = List.concat_map (fun (t0, _, s) -> cycle_times t0 s) parts in
      if cycles = [] then fail "serve: no complete request cycle";
      ( n, n_ok samples,
        [ metric "pass_s" "s" (median cycles);
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric "delay_geomean" "lib_units" (geo (fun t -> t.delay));
          metric "area_geomean" "lib_units" (geo (fun t -> t.area));
          metric "ok_frac" "ratio" (ratio (float_of_int (n_ok samples)) (float_of_int n));
          metric "p50_ms" "ms" (quantile 0.5 (lat_ms samples));
          metric "p99_ms" "ms" (windowed_p99 samples);
          metric "throughput_rps" "1/s" (float_of_int n /. wall) ] )
    end
    else begin
      (* Untraced half, then traced half; then replay cycles for the
         per-layer split. *)
      let _, _, plain = measure ~min_samples:p99_window (seconds *. 0.4) in
      probe ();
      Span.set_enabled true;
      let _, _, traced = measure ~min_samples:p99_window (seconds *. 0.4) in
      probe ();
      let tables = ref [] in
      let per_request = Array.make cycle [] in
      for _ = 1 to 2 do
        Gc.compact ();
        fresh_pass ();
        let gc0 = gc_sample () in
        for i = 0 to cycle - 1 do
          let ci, verb = request_of i in
          let t0 = Clock.now () in
          let v = replay db ci payloads.(ci) verb in
          per_request.(i) <- Clock.since t0 :: per_request.(i);
          if not v.audited then fail "serve: replay audit failed on payload %d" ci
          else if v <> truth.(ci) then
            fail "serve: replay of payload %d differs from the ground truth" ci
        done;
        gc_delta gc0;
        tables := !acc :: !tables
      done;
      Span.set_enabled false;
      let tables = !tables in
      let replay_s = Array.map median per_request in
      let p50 l = quantile 0.5 (lat_ms l) in
      let verb_p50 verb = p50 (List.filter (fun s -> s.s_verb = verb) traced) in
      let all = plain @ traced in
      ( List.length all, n_ok all,
        layer_medians tables (("input.read_s", "s") :: pass_layers)
        @ derived_medians tables
        @ [ metric "request.map_p50_ms" "ms" (verb_p50 Proto.Map);
            metric "request.check_p50_ms" "ms" (verb_p50 Proto.Check);
            metric "request.sta_p50_ms" "ms" (verb_p50 Proto.Sta);
            metric "request.overhead_ms" "ms"
              (median
                 (List.map
                    (fun s -> 1000.0 *. (s.s_lat -. replay_s.(s.s_abs mod cycle)))
                    traced)) ]
        @ circuit_metrics tables
        @ [ metric "trace.overhead_frac" "ratio" ((p50 traced /. p50 plain) -. 1.0) ] )
    end
  in
  let setup_reps =
    let late = sampled_setups ~for_s:late_setup_s 1 in
    probe ();
    reps_before @ reps_serving @ late
  in
  let setup =
    if trace then setup_metrics setup_reps
    else [ metric "setup_s" "s" (median (List.map fst setup_reps)) ]
  in
  { attempted; ok;
    metrics = setup @ metrics;
    exact =
      List.concat
        (Array.to_list (Array.mapi (fun ci -> exact_of (payload_name ci)) truth));
    info =
      [ ("setup_reps", string_of_int (List.length setup_reps));
        ("jobs", "1"); ("clients", string_of_int clients);
        ("samples", string_of_int attempted) ] }

(* ---------- main ---------- *)

let workloads = [ "paper-44-3"; "soc-dag"; "soc-cut"; "serve-lib2" ]

(* Times go out at the reference speed; the traced run also reports
   the run's median probe, unscaled, so the host's speed shows. *)
let print_outcome ~workload ~workload_seed ~trace ~correct o =
  let metrics =
    List.map at_reference_speed o.metrics
    @
    if trace then [ metric "host.probe_ms" "ms" (1000.0 *. probe_median ()) ]
    else []
  in
  let info =
    [ ("workload", workload); ("seed", string_of_int !run_seed);
      ("workload_seed", string_of_int workload_seed);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version) ]
    @ o.info
    @ [ ("probes", string_of_int (List.length !probe_samples));
        ("speed_factor", Printf.sprintf "%.4f" (probe_ref_s /. probe_median ())) ]
  in
  print_endline
    ("perfbench: "
    ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) info));
  let json =
    Json.Obj
      [ ("correct", Json.Bool correct);
        ("attempted", Json.Int o.attempted);
        ("failed", Json.Int (o.attempted - o.ok));
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.m_name,
                   Json.Obj
                     [ ("value", Json.String (Printf.sprintf "%.17g" m.m_value));
                       ("unit", Json.String m.m_unit) ] ))
               metrics) );
        ("exact", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) o.exact))
      ]
  in
  print_endline (Json.to_string json)

let () =
  let workload = ref "" and workload_seed = ref default_seed
  and seconds = ref 10.0
  and trace = ref false in
  let usage () =
    prerr_endline
      ("usage: bench.exe --workload {" ^ String.concat "|" workloads
     ^ "} [--seed N] [--workload-seed M] [--seconds S] [--trace 0|1]");
    exit 2
  in
  let int_arg r v = match int_of_string_opt v with Some n -> r := n | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> int_arg run_seed v; parse rest
    | "--workload-seed" :: v :: rest -> int_arg workload_seed v; parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s > 0.0 -> seconds := s
       | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  let o =
    if !workload = "serve-lib2" then
      run_serve ~seed:!workload_seed ~seconds:!seconds ~trace:!trace
    else run_batch ~seed:!workload_seed ~seconds:!seconds ~trace:!trace !workload
  in
  if !trace then
    Span.write_chrome
      (out_file
         (Printf.sprintf "trace-%s-%d-%d.json" !workload !workload_seed !run_seed));
  let correct = Atomic.get failures = 0 && o.ok = o.attempted in
  print_outcome ~workload:!workload ~workload_seed:!workload_seed
    ~trace:!trace ~correct o;
  exit (if correct then 0 else 1)
