(* Arena suite: the flat struct-of-arrays subject store must be
   indistinguishable from the boxed subject graph — conversion
   round-trips exactly and derived arrays agree — and mapping through
   the arena boundary ({!Parmap.map_arena}) must reproduce the golden
   label and netlist digests that every DAG engine is held to. *)

open Dagmap_genlib
open Dagmap_subject
open Dagmap_core
open Dagmap_circuits
open Dagmap_super
open Dagmap_check

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let modes = [ Mapper.Tree; Mapper.Dag; Mapper.Dag_extended ]

let libs () =
  [ Libraries.minimal (); Libraries.lib44_1_like (); Libraries.lib2_like () ]

let fixed_circuits () =
  [ ("adder16", Generators.ripple_adder 16);
    ("ks16", Generators.kogge_stone_adder 16);
    ("cla16", Generators.carry_lookahead_adder 16);
    ("mult4", Generators.array_multiplier 4) ]

let huge_enabled () =
  match Sys.getenv_opt "DAGMAP_HUGE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Equality helpers                                                    *)
(* ------------------------------------------------------------------ *)

let same_subject (g1 : Subject.t) (g2 : Subject.t) =
  g1.Subject.kinds = g2.Subject.kinds
  && g1.Subject.names = g2.Subject.names
  && g1.Subject.outputs = g2.Subject.outputs
  && g1.Subject.const_outputs = g2.Subject.const_outputs
  && g1.Subject.num_pis = g2.Subject.num_pis
  && g1.Subject.n_latches = g2.Subject.n_latches

let same_arena (a1 : Arena.t) (a2 : Arena.t) =
  a1.Arena.n = a2.Arena.n
  && (let ok = ref true in
      for i = 0 to a1.Arena.n - 1 do
        if
          Arena.fanin0 a1 i <> Arena.fanin0 a2 i
          || Arena.fanin1 a1 i <> Arena.fanin1 a2 i
        then ok := false
      done;
      !ok)
  && a1.Arena.pi_nodes = a2.Arena.pi_nodes
  && a1.Arena.pi_names = a2.Arena.pi_names
  && a1.Arena.outputs = a2.Arena.outputs
  && a1.Arena.const_outputs = a2.Arena.const_outputs
  && a1.Arena.num_pis = a2.Arena.num_pis
  && a1.Arena.n_latches = a2.Arena.n_latches

let same_best (b1 : Matcher.mtch option array) (b2 : Matcher.mtch option array) =
  Array.length b1 = Array.length b2
  && Array.for_all2
       (fun m1 m2 ->
         match m1, m2 with
         | None, None -> true
         | Some m1, Some m2 ->
           (* Physically the same pattern: both runs enumerate out of
              the same prepared library. *)
           m1.Matcher.pattern == m2.Matcher.pattern
           && m1.Matcher.pins = m2.Matcher.pins
           && m1.Matcher.covered = m2.Matcher.covered
         | _ -> false)
       b1 b2

let same_netlist (n1 : Netlist.t) (n2 : Netlist.t) =
  Array.length n1.Netlist.instances = Array.length n2.Netlist.instances
  && Array.for_all2
       (fun (i1 : Netlist.instance) (i2 : Netlist.instance) ->
         i1.Netlist.inst_id = i2.Netlist.inst_id
         && i1.Netlist.gate == i2.Netlist.gate
         && i1.Netlist.inputs = i2.Netlist.inputs
         && i1.Netlist.subject_root = i2.Netlist.subject_root
         && i1.Netlist.covers = i2.Netlist.covers)
       n1.Netlist.instances n2.Netlist.instances
  && n1.Netlist.outputs = n2.Netlist.outputs

(* Bit-identity of two mapping results. Cache hit/miss splits are
   not compared: which worker's cache sees a structure first depends
   on the schedule; only totals of work done are schedule-independent. *)
let check_same_result name (expected : Mapper.result) (got : Mapper.result) =
  check tbool (name ^ " labels") true (expected.Mapper.labels = got.Mapper.labels);
  check tbool (name ^ " best") true
    (same_best expected.Mapper.best got.Mapper.best);
  check tbool (name ^ " netlist") true
    (same_netlist expected.Mapper.netlist got.Mapper.netlist);
  check tint (name ^ " matches tried") expected.Mapper.run.Mapper.matches_tried
    got.Mapper.run.Mapper.matches_tried;
  check tint (name ^ " super matches tried")
    expected.Mapper.run.Mapper.super_matches_tried
    got.Mapper.run.Mapper.super_matches_tried

(* ------------------------------------------------------------------ *)
(* Conversion round-trips                                              *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_fixed () =
  let circuits =
    fixed_circuits ()
    @ [ ("barrel8", Generators.barrel_shifter 8);
        ("lfsr8", Generators.lfsr 8);  (* sequential: latch boundaries *)
        ("rand", Generators.random_dag ~seed:7 ~nodes:120 ()) ]
  in
  List.iter
    (fun (name, net) ->
      List.iter
        (fun (sname, style) ->
          let g = Subject.of_network ~style net in
          let a = Arena.of_subject g in
          check tbool
            (Printf.sprintf "%s/%s to_subject (of_subject g) = g" name sname)
            true
            (same_subject g (Arena.to_subject a));
          check tbool
            (Printf.sprintf "%s/%s of_network = of_subject . of_network" name
               sname)
            true
            (same_arena a (Arena.of_network ~style net)))
        [ ("bal", Subject.Balanced);
          ("left", Subject.Left_skew);
          ("right", Subject.Right_skew) ])
    circuits

let qc_roundtrip =
  QCheck.Test.make ~count:30 ~name:"arena <-> subject round-trip on random DAGs"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:6 ~nodes:80 () in
      let g = Subject.of_network net in
      let a = Arena.of_network net in
      same_arena a (Arena.of_subject g)
      && same_subject g (Arena.to_subject a))

(* Raw (non-hashed) nodes must survive the round-trip node-for-node:
   of_subject must not re-hash. *)
let test_roundtrip_raw_duplicates () =
  let b = Subject.Builder.create () in
  let x = Subject.Builder.pi b "x" in
  let y = Subject.Builder.pi b "y" in
  let n1 = Subject.Builder.raw_nand b x y in
  let n2 = Subject.Builder.raw_nand b x y in
  let i1 = Subject.Builder.raw_inv b n1 in
  let i2 = Subject.Builder.raw_inv b i1 in
  Subject.Builder.output b "o1" i2;
  Subject.Builder.output b "o2" n2;
  let g = Subject.Builder.finish b in
  let a = Arena.of_subject g in
  check tint "duplicates preserved" (Subject.num_nodes g) (Arena.num_nodes a);
  check tbool "raw round-trip" true (same_subject g (Arena.to_subject a))

(* The arena builder must make the same hashing decisions as
   Subject.Builder (commutative nand, nand x x = inv, inverter-pair
   cancellation). *)
let test_builder_semantics () =
  let sb = Subject.Builder.create () in
  let ab = Arena.Builder.create () in
  let sx = Subject.Builder.pi sb "x" and ax = Arena.Builder.pi ab "x" in
  let sy = Subject.Builder.pi sb "y" and ay = Arena.Builder.pi ab "y" in
  let pairs =
    [ (Subject.Builder.nand sb sx sy, Arena.Builder.nand ab ax ay);
      (Subject.Builder.nand sb sy sx, Arena.Builder.nand ab ay ax);
      (Subject.Builder.nand sb sx sx, Arena.Builder.nand ab ax ax);
      (Subject.Builder.inv sb sx, Arena.Builder.inv ab ax);
      (Subject.Builder.inv sb (Subject.Builder.inv sb sy),
       Arena.Builder.inv ab (Arena.Builder.inv ab ay)) ]
  in
  List.iteri
    (fun i (s, a) -> check tint (Printf.sprintf "builder op %d" i) s a)
    pairs;
  Subject.Builder.output sb "o" (List.hd pairs |> fst);
  Arena.Builder.output ab "o" (List.hd pairs |> snd);
  let g = Subject.Builder.finish sb in
  let a = Arena.Builder.finish ab in
  check tbool "same graph" true (same_arena (Arena.of_subject g) a)

(* ------------------------------------------------------------------ *)
(* Derived arrays                                                      *)
(* ------------------------------------------------------------------ *)

let test_derived_arrays () =
  List.iter
    (fun (name, net) ->
      let g = Subject.of_network net in
      let a = Arena.of_subject g in
      check tbool (name ^ " levels") true (Subject.levels g = Arena.levels a);
      check tbool (name ^ " fanouts") true
        (Subject.fanout_counts g = Arena.fanout_counts a);
      check tint (name ^ " depth") (Subject.depth g) (Arena.depth a);
      check tbool (name ^ " by_level") true
        (Subject.by_level g = Arena.by_level a);
      (* level_ranges is the dense form of by_level. *)
      let order, starts = Arena.level_ranges a in
      let lv = Arena.levels a in
      check tint (name ^ " ranges cover all") (Arena.num_nodes a)
        (Array.length order);
      check tint (name ^ " starts end") (Arena.num_nodes a)
        starts.(Array.length starts - 1);
      Array.iteri
        (fun l group ->
          check tbool
            (Printf.sprintf "%s level %d slice" name l)
            true
            (group = Array.sub order starts.(l) (starts.(l + 1) - starts.(l))))
        (Arena.by_level a);
      Array.iteri
        (fun pos node ->
          let l = lv.(node) in
          check tbool
            (Printf.sprintf "%s order[%d] in its range" name pos)
            true
            (pos >= starts.(l) && pos < starts.(l + 1)))
        order;
      (* The O(n) levels sweep runs once per arena: repeated calls —
         and the level_ranges/by_level/depth derivations on top —
         share one memoized array instead of recomputing it. *)
      check tbool (name ^ " levels memoized") true
        (Arena.levels a == Arena.levels a);
      check tbool (name ^ " memoized levels unchanged") true
        (Subject.levels g = Arena.levels a);
      check tint (name ^ " depth stable") (Subject.depth g) (Arena.depth a);
      check tbool (name ^ " by_level stable") true
        (Subject.by_level g = Arena.by_level a))
    (fixed_circuits ())

(* ------------------------------------------------------------------ *)
(* Golden digests                                                      *)
(* ------------------------------------------------------------------ *)

(* Every DAG engine must reproduce these digests. A digest covers the
   exact bits of every label, and every cover instance (gate, input
   drivers, subject root, covered nodes) plus the output drivers, so
   any change to labeling order, tie-breaking or cover construction
   shows up as a mismatch. Matches tried are pinned too: a faster
   matcher must still consider the same matches. *)

let labels_digest (r : Mapper.result) =
  let b = Buffer.create (16 * Array.length r.Mapper.labels) in
  Array.iter
    (fun l -> Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float l)))
    r.Mapper.labels;
  Digest.to_hex (Digest.string (Buffer.contents b))

let netlist_digest (r : Mapper.result) =
  let nl = r.Mapper.netlist in
  let b = Buffer.create 4096 in
  let driver = function
    | Netlist.D_pi i -> Printf.bprintf b "p%d," i
    | Netlist.D_gate i -> Printf.bprintf b "g%d," i
    | Netlist.D_const c -> Printf.bprintf b "c%b," c
  in
  Array.iter
    (fun (i : Netlist.instance) ->
      Printf.bprintf b "%d:%s(" i.Netlist.inst_id i.Netlist.gate.Gate.gate_name;
      Array.iter driver i.Netlist.inputs;
      Printf.bprintf b ")@%d[" i.Netlist.subject_root;
      Array.iter (Printf.bprintf b "%d,") i.Netlist.covers;
      Buffer.add_string b "]\n")
    nl.Netlist.instances;
  List.iter
    (fun (name, d) ->
      Printf.bprintf b "%s=" name;
      driver d)
    nl.Netlist.outputs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One golden row per circuit x library x mode. *)
let golden_runs () =
  let subjects =
    List.map (fun (name, net) -> (name, Subject.of_network net))
      (fixed_circuits ())
  in
  List.concat_map
    (fun lib ->
      let db = Matchdb.prepare lib in
      List.concat_map
        (fun (cname, g) ->
          List.map
            (fun mode ->
              ( Printf.sprintf "%s/%s/%s" cname lib.Libraries.lib_name
                  (Mapper.mode_name mode),
                g, db, mode ))
            modes)
        subjects)
    (libs ())

(* The supergate row: 44-1 augmented with its small supergates. *)
let golden_super () =
  let base = Libraries.lib44_1_like () in
  let bounds = { Superenum.default_bounds with max_pins = 4; max_size = 3 } in
  let sgl, _ = Superlib.make ~bounds base in
  let db = Matchdb.prepare (Superlib.augment base sgl) in
  ( "ks16/44-1+super/dag",
    Subject.of_network (Generators.kogge_stone_adder 16),
    db, Mapper.Dag )

(* key -> (labels digest, netlist digest, matches tried). Recorded
   while two independent DAG engines existed (the boxed Mapper/Parmap
   and an arena-native port), cached and uncached, jobs 1/2/4, all in
   agreement. *)
let golden =
  [ ( "adder16/minimal/tree",
      ("e2910679773d8321e1ad35ca32318ad5",
       "574396bd0d639de4096cf6c8bd84fb1e", 352) );
    ( "adder16/minimal/dag",
      ("e2910679773d8321e1ad35ca32318ad5",
       "574396bd0d639de4096cf6c8bd84fb1e", 352) );
    ( "adder16/minimal/dag-extended",
      ("e2910679773d8321e1ad35ca32318ad5",
       "574396bd0d639de4096cf6c8bd84fb1e", 352) );
    ( "ks16/minimal/tree",
      ("fd220c2bb4b0fa66f55500cf3a665d78",
       "b40cb7baca5d016ffd9bdf7c4d82f0c1", 759) );
    ( "ks16/minimal/dag",
      ("fd220c2bb4b0fa66f55500cf3a665d78",
       "b40cb7baca5d016ffd9bdf7c4d82f0c1", 759) );
    ( "ks16/minimal/dag-extended",
      ("fd220c2bb4b0fa66f55500cf3a665d78",
       "b40cb7baca5d016ffd9bdf7c4d82f0c1", 759) );
    ( "cla16/minimal/tree",
      ("fa3f3a4f8df9ecfe763e7ec00bbb9f41",
       "60708fb70a818c8a4a59b32002a914e1", 524) );
    ( "cla16/minimal/dag",
      ("fa3f3a4f8df9ecfe763e7ec00bbb9f41",
       "60708fb70a818c8a4a59b32002a914e1", 524) );
    ( "cla16/minimal/dag-extended",
      ("fa3f3a4f8df9ecfe763e7ec00bbb9f41",
       "60708fb70a818c8a4a59b32002a914e1", 524) );
    ( "mult4/minimal/tree",
      ("2be816c4e2416293cd4a9d9ad437cee3",
       "9c96d341e4fbf0129b0101992c6c9744", 249) );
    ( "mult4/minimal/dag",
      ("2be816c4e2416293cd4a9d9ad437cee3",
       "9c96d341e4fbf0129b0101992c6c9744", 249) );
    ( "mult4/minimal/dag-extended",
      ("2be816c4e2416293cd4a9d9ad437cee3",
       "9c96d341e4fbf0129b0101992c6c9744", 249) );
    ( "adder16/44-1/tree",
      ("e2910679773d8321e1ad35ca32318ad5",
       "574396bd0d639de4096cf6c8bd84fb1e", 352) );
    ( "adder16/44-1/dag",
      ("1e9458b4485439714793409c0e85187c",
       "d43caa2ed947534ecc27c6a5151a68b4", 476) );
    ( "adder16/44-1/dag-extended",
      ("1e9458b4485439714793409c0e85187c",
       "d43caa2ed947534ecc27c6a5151a68b4", 476) );
    ( "ks16/44-1/tree",
      ("9f8e799c817a9151a5ceede829197335",
       "e137367d39fc83fd1eee7c6f69401cec", 991) );
    ( "ks16/44-1/dag",
      ("5a977ab0e48597cfff3e30711252887c",
       "919213d1991c1edf1e628ba9622bde11", 3769) );
    ( "ks16/44-1/dag-extended",
      ("5a977ab0e48597cfff3e30711252887c",
       "919213d1991c1edf1e628ba9622bde11", 3769) );
    ( "cla16/44-1/tree",
      ("c9610d2f3a536518af3c86e3ac12c71b",
       "a70184b6561ec55d9c3b877e5a46558c", 788) );
    ( "cla16/44-1/dag",
      ("c92aea1834aab0ba4c345c69eb96c064",
       "a2fb5214d008d6a2eb28ec9a7aaee859", 1416) );
    ( "cla16/44-1/dag-extended",
      ("c92aea1834aab0ba4c345c69eb96c064",
       "a2fb5214d008d6a2eb28ec9a7aaee859", 1416) );
    ( "mult4/44-1/tree",
      ("2be816c4e2416293cd4a9d9ad437cee3",
       "9c96d341e4fbf0129b0101992c6c9744", 249) );
    ( "mult4/44-1/dag",
      ("11014a887f68dc185f5dcd9ed22cd5d7",
       "0030d5b33297c950cea17b953c5e008f", 699) );
    ( "mult4/44-1/dag-extended",
      ("11014a887f68dc185f5dcd9ed22cd5d7",
       "0030d5b33297c950cea17b953c5e008f", 699) );
    ( "adder16/lib2/tree",
      ("fb27eaed18f7a1d35211adef1b4b392e",
       "4d954e22eaac89e1c17b5618a4634de1", 992) );
    ( "adder16/lib2/dag",
      ("66b1c764e7018e8bf9ad8aa5e5b64511",
       "1e132f3c245b39f5ba393780dcf53152", 1546) );
    ( "adder16/lib2/dag-extended",
      ("66b1c764e7018e8bf9ad8aa5e5b64511",
       "1e132f3c245b39f5ba393780dcf53152", 1546) );
    ( "ks16/lib2/tree",
      ("abf4932e4f0bc782d4b27986cdaab02c",
       "a5b08ebd3cacef5093ae65f62ce888a7", 2009) );
    ( "ks16/lib2/dag",
      ("52ea2efa988b3544984aec66dae92b85",
       "11d3f53da2b4b5a374b5c6e37bcb18d9", 7720) );
    ( "ks16/lib2/dag-extended",
      ("52ea2efa988b3544984aec66dae92b85",
       "11d3f53da2b4b5a374b5c6e37bcb18d9", 7720) );
    ( "cla16/lib2/tree",
      ("30ff7d24f531e1ca002d04f742e70941",
       "28d9e6d3e793b321094269ea8f6ca9d2", 1628) );
    ( "cla16/lib2/dag",
      ("3843806ccd2867f595c58f1fbea3600c",
       "bdeb0ef4d6b056c2c75fa7b0d17775ac", 3281) );
    ( "cla16/lib2/dag-extended",
      ("75dbb14b8acb2e8fab4390280cd5a923",
       "d06519383c10f5fc898426e17d8f1f78", 3409) );
    ( "mult4/lib2/tree",
      ("1e6936e6cc7e050939a9fcc840076e8b",
       "6d0c3062650c7427fbd5db3eeed6f333", 570) );
    ( "mult4/lib2/dag",
      ("1312c13148ef658725dde8c146519408",
       "ae6976843ed4545f32b0f08d46987ca0", 1621) );
    ( "mult4/lib2/dag-extended",
      ("1312c13148ef658725dde8c146519408",
       "ae6976843ed4545f32b0f08d46987ca0", 1621) );
    ( "ks16/44-1+super/dag",
      ("732322813ec9e0c6c27f20242bf4081b",
       "8f16bb29bb847d67ec00466db979ad76", 5297) ) ]

let check_golden ?(run = "") key (r : Mapper.result) =
  let labels, netlist, tried = List.assoc key golden in
  let name = key ^ run in
  let tstring = Alcotest.string in
  check tstring (name ^ " labels digest") labels (labels_digest r);
  check tstring (name ^ " netlist digest") netlist (netlist_digest r);
  check tint (name ^ " matches tried") tried r.Mapper.run.Mapper.matches_tried

let for_each_golden f =
  List.iter (fun (key, g, db, mode) -> f key g db mode) (golden_runs ())

let test_golden_sequential () =
  for_each_golden (fun key g db mode ->
      List.iter
        (fun cache ->
          check_golden ~run:(Printf.sprintf " cache=%b" cache) key
            (Mapper.map ~cache mode db g))
        [ true; false ])

let test_golden_parallel () =
  for_each_golden (fun key g db mode ->
      List.iter
        (fun jobs ->
          check_golden ~run:(Printf.sprintf " jobs=%d" jobs) key
            (fst (Parmap.map ~jobs mode db g)))
        [ 1; 2; 4 ])

let test_golden_arena () =
  for_each_golden (fun key g db mode ->
      let a = Arena.of_subject g in
      List.iter
        (fun jobs ->
          check_golden ~run:(Printf.sprintf " arena jobs=%d" jobs) key
            (fst (Parmap.map_arena ~jobs ~subject:g mode db a)))
        [ 1; 2; 4 ])

(* Without ~subject the arena is converted back through to_subject at
   the boundary; the mapping and its source graph must not change. *)
let test_golden_to_subject () =
  for_each_golden (fun key g db mode ->
      let r, _ = Parmap.map_arena mode db (Arena.of_subject g) in
      check_golden key r;
      check tbool (key ^ " source round-trips") true
        (same_subject g r.Mapper.netlist.Netlist.source))

let test_golden_super () =
  let key, g, db, mode = golden_super () in
  let seq = Mapper.map mode db g in
  check_golden key seq;
  check tbool (key ^ " supergates actually used") true
    (seq.Mapper.run.Mapper.super_gates_used > 0);
  List.iter
    (fun jobs ->
      check_golden ~run:(Printf.sprintf " jobs=%d" jobs) key
        (fst (Parmap.map ~jobs mode db g));
      check_golden ~run:(Printf.sprintf " arena jobs=%d" jobs) key
        (fst (Parmap.map_arena ~jobs ~subject:g mode db (Arena.of_subject g))))
    [ 1; 2 ]

(* Random circuits have no golden row: mapping through the arena
   boundary must equal the boxed mapper, and the cover must audit
   clean. *)
let qc_differential =
  QCheck.Test.make ~count:12
    ~name:"arena mapping = legacy mapping on random circuits (audited)"
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let net = Generators.random_dag ~seed ~inputs:8 ~outputs:4 ~nodes:70 () in
      let g = Subject.of_network net in
      let a = Arena.of_network net in
      let db = Matchdb.prepare (Libraries.lib2_like ()) in
      List.for_all
        (fun mode ->
          let seq = Mapper.map mode db g in
          let am, _ = Parmap.map_arena mode db a in
          seq.Mapper.labels = am.Mapper.labels
          && same_best seq.Mapper.best am.Mapper.best
          && same_netlist seq.Mapper.netlist am.Mapper.netlist
          && Check.audit_result ~rounds:4 g am = [])
        modes)

let test_unmappable () =
  let inv_only =
    Libraries.make "invonly"
      (Genlib_parser.parse_string
         "GATE inv 1 O=!a; PIN a INV 1 999 1.0 0.1 1.0 0.1")
  in
  let b = Arena.Builder.create () in
  let x = Arena.Builder.pi b "x" in
  let y = Arena.Builder.pi b "y" in
  let n = Arena.Builder.raw_nand b x y in
  Arena.Builder.output b "o" n;
  let a = Arena.Builder.finish b in
  let db = Matchdb.prepare inv_only in
  check tbool "Unmappable raises" true
    (match Parmap.map_arena ~jobs:1 Mapper.Dag db a with
     | _ -> false
     | exception Mapper.Unmappable _ -> true)

(* ------------------------------------------------------------------ *)
(* Scale and stack safety                                              *)
(* ------------------------------------------------------------------ *)

(* The 100k-deep chain pattern from the earlier traversal-safety PRs,
   now through the arena: build, derive, map, verify — no recursion
   anywhere on the node count. *)
let test_deep_chain_100k () =
  let depth = 100_000 in
  let net = Generators.nand_chain depth in
  let g = Subject.of_network net in
  let a = Arena.of_network net in
  check tbool "arena = subject" true (same_arena a (Arena.of_subject g));
  check tint "chain depth" depth (Arena.depth a);
  let _ = Arena.level_ranges a in
  let db = Matchdb.prepare (Libraries.minimal ()) in
  let seq = Mapper.map Mapper.Dag db g in
  check tbool "chain100k audit clean" true
    (Check.audit_result ~rounds:2 g seq = []);
  (* Chunking stress: 100k levels of width ~1 through the parallel
     labeler — every level is below the fan-out threshold, so the
     whole sweep must run on the calling domain with zero cursor
     traffic, no recursion on the depth, and bit-identical output. *)
  let par, stats = Parmap.map_arena ~jobs:4 ~subject:g Mapper.Dag db a in
  check_same_result "chain100k jobs=4" seq par;
  check tint "chain100k no parallel levels" 0 stats.Parmap.parallel_levels;
  check tint "chain100k no chunks" 0 stats.Parmap.chunks;
  check tbool "chain100k one timing per level" true
    (Array.length stats.Parmap.level_seconds = stats.Parmap.levels)

(* A mid-size SoC runs the whole stack end-to-end on every test run;
   the million-node versions below are gated behind DAGMAP_HUGE=1
   (CI runs a ~100k bench smoke instead, see .github/workflows). *)
let test_soc_end_to_end () =
  let net = Generators.synthetic_soc ~seed:3 ~nodes:60_000 () in
  let g = Subject.of_network net in
  let a = Arena.of_network net in
  check tbool "soc arena = subject" true (same_arena a (Arena.of_subject g));
  let db = Matchdb.prepare (Libraries.lib2_like ()) in
  let seq = Mapper.map Mapper.Dag db g in
  let am, _ = Parmap.map_arena ~jobs:2 Mapper.Dag db a in
  check_same_result "soc60k" seq am;
  check tbool "soc60k audit clean" true
    (Check.audit_result ~rounds:2 g am = [])

let million_case name build =
  if not (huge_enabled ()) then
    Printf.printf "[test_arena] %s skipped (set DAGMAP_HUGE=1 to run)\n%!" name
  else begin
    let net = build () in
    let a = Arena.of_network net in
    check tbool (name ^ " has 1M+ subject nodes") true
      (Arena.num_nodes a >= 1_000_000);
    let g = Arena.to_subject a in
    let db = Matchdb.prepare (Libraries.minimal ()) in
    let seq = Mapper.map Mapper.Dag db g in
    (* Satellite contract: Check.lint + delay audit, no stack
       overflow. (Functional sim is exercised at the 60k tier.) *)
    check tbool (name ^ " structural") true
      (Check.structural seq.Mapper.netlist = []);
    check tbool (name ^ " delay audit") true
      (Check.delay ~predicted:(Mapper.predicted_arrivals seq)
         seq.Mapper.netlist
       = []);
    (* The 4-domain labeler must survive the same scale and agree
       bit-for-bit, and its cover must pass the same audits. *)
    let par, _ = Parmap.map_arena ~jobs:4 ~subject:g Mapper.Dag db a in
    check_same_result (name ^ " jobs=4") seq par;
    check tbool (name ^ " jobs=4 structural") true
      (Check.structural par.Mapper.netlist = []);
    check tbool (name ^ " jobs=4 delay audit") true
      (Check.delay
         ~predicted:(Mapper.predicted_arrivals par)
         par.Mapper.netlist
       = [])
  end

let test_million_chain () =
  million_case "chain1M" (fun () -> Generators.nand_chain 1_000_000)

let test_million_soc () =
  million_case "soc1M" (fun () ->
      Generators.synthetic_soc ~seed:1 ~nodes:400_000 ())

let () =
  Alcotest.run "arena"
    [ ( "convert",
        [ Alcotest.test_case "fixed round-trips x styles" `Quick
            test_roundtrip_fixed;
          QCheck_alcotest.to_alcotest qc_roundtrip;
          Alcotest.test_case "raw duplicates" `Quick
            test_roundtrip_raw_duplicates;
          Alcotest.test_case "builder semantics" `Quick test_builder_semantics
        ] );
      ( "derived",
        [ Alcotest.test_case "levels/fanouts/by_level/ranges" `Quick
            test_derived_arrays ] );
      ( "differential",
        [ Alcotest.test_case "sequential matrix" `Quick test_golden_sequential;
          Alcotest.test_case "parallel matrix jobs 1/2/4" `Quick
            test_golden_parallel;
          Alcotest.test_case "parallel-arena matrix jobs 1/2/4" `Quick
            test_golden_arena;
          Alcotest.test_case "to_subject path" `Quick test_golden_to_subject;
          Alcotest.test_case "supergate library" `Quick test_golden_super;
          QCheck_alcotest.to_alcotest qc_differential;
          Alcotest.test_case "Unmappable propagates" `Quick test_unmappable ] );
      ( "scale",
        [ Alcotest.test_case "100k-deep chain" `Quick test_deep_chain_100k;
          Alcotest.test_case "60k-node SoC end-to-end" `Quick
            test_soc_end_to_end;
          Alcotest.test_case "1M-node chain (DAGMAP_HUGE)" `Slow
            test_million_chain;
          Alcotest.test_case "1M-node SoC (DAGMAP_HUGE)" `Slow
            test_million_soc ] ) ]
