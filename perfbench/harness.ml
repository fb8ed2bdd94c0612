(* Request-level benchmark of the query service.

   One generator thread drives [Service] as a closed loop with two
   requests outstanding, over two worker domains, the vector engine and
   the caching tier.  Three workloads (see README.md for why each):

   - adhoc-cold  distinct generated correlated-subquery statements;
   - serve-warm  literal-perturbed instances of the eight named
                 templates on a warmed plan cache, with q17-family
                 batches;
   - write-mix   serve-warm's reads on a durable store, with one
                 journaled lineitem append after every 10 reads.

   Every workload sends one 3-statement [query_many] batch per 10
   reads: three fresh generated statements on adhoc-cold, the q17
   family (one shared subquery) on the others.  [Service.query_many]
   passes no execution mode to [Engine.query_many], so batches run on
   the row interpreter, not on the vector engine the reads use.
   Every result bag is checked against a reference computed outside
   the timed window by a path that shares neither the optimizer's
   search nor the vector engine nor the cache.

   With [--trace 1] the same loop runs with spans recorded by this file
   around the calls into each layer, and the per-layer metrics are
   printed instead of the end-to-end ones.

     harness --workload NAME --seed N --seconds S --trace 0|1
             [--sf X] [--out DIR]

   The last line of standard output is the result object. *)

module M = Measure
module Rng = Exec.Faults.Rng

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Options                                                            *)
(* ------------------------------------------------------------------ *)

type workload = Adhoc_cold | Serve_warm | Write_mix

let workloads = [ ("adhoc-cold", Adhoc_cold); ("serve-warm", Serve_warm); ("write-mix", Write_mix) ]

type opts = {
  wl : workload;
  wl_name : string;
  seed : int;
  seconds : float;
  trace : bool;
  sf : float;
  out_dir : string;
}

let usage () =
  prerr_endline
    "usage: harness --workload adhoc-cold|serve-warm|write-mix --seed N --seconds S \
     --trace 0|1 [--sf X] [--out DIR]";
  exit 2

let parse_args () : opts =
  let kv = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace kv (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = Hashtbl.find_opt kv k in
  let num conv k = match get k with Some v -> (try Some (conv v) with _ -> usage ()) | None -> None in
  let wl_name = match get "workload" with Some w -> w | None -> usage () in
  let wl = match List.assoc_opt wl_name workloads with Some w -> w | None -> usage () in
  let default_sf = match wl with Adhoc_cold -> 0.01 | Serve_warm | Write_mix -> 0.1 in
  { wl;
    wl_name;
    seed = Option.value (num int_of_string "seed") ~default:1;
    seconds = Option.value (num float_of_string "seconds") ~default:10.;
    trace = Option.value (num int_of_string "trace") ~default:0 = 1;
    sf = Option.value (num float_of_string "sf") ~default:default_sf;
    out_dir = Option.value (get "out") ~default:".perfbench_out";
  }

(* ------------------------------------------------------------------ *)
(* Fixed settings                                                     *)
(* ------------------------------------------------------------------ *)

let domains = 2
let outstanding = 2
(* Set-up runs at least [min_setups] times and until [setup_budget_s]
   has passed (at most [max_setups]); setup_s is the median. *)
let min_setups = 3
let max_setups = 200
let setup_budget_s = 2.
(* Reads per batch.  adhoc-cold's batches are three cold generated
   statements each, of very uneven cost; at one per 10 reads a 30 s run
   had about 40 of them, and the median of their latency spread by
   0.23 to 0.26 of itself over 10 seeds. *)
let reads_per_batch = function Adhoc_cold -> 5 | Serve_warm | Write_mix -> 10
let variant_factors = [| 1.0; 0.9; 1.1 |]
let adhoc_pool_seed = 11
let adhoc_pool_reads = 260
let adhoc_pool_batches = 24

(* A reference plan whose estimated cost exceeds this many units per
   base-table row is not run; the reference's second path serves
   instead (see [reference]). *)
let reference_cost_cap = 16.

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

(* Scale every numeric literal by [factor], keeping its type; LIMIT
   counts are left alone.  The plan cache keys on the literal-free
   canonical form, so variants share one cached plan.  A float stays
   non-integral: [Token.to_string] renders an integral float as "7.",
   which re-tokenizes as INT DOT. *)
let perturb ~(factor : float) (sql : string) : string =
  let module T = Sqlfront.Token in
  let scale prev t =
    match (prev, t) with
    | Some (T.KEYWORD "LIMIT"), _ -> t
    | _, T.INT n -> T.INT (int_of_float (Float.round (float_of_int n *. factor)))
    | _, T.FLOAT f ->
        let f' = f *. factor in
        T.FLOAT (if Float.is_integer f' then f' +. 0.5 else f')
    | _ -> t
  in
  let rec go prev acc = function
    | [] -> List.rev acc
    | t :: rest -> go (Some t) (scale prev t :: acc) rest
  in
  Sqlfront.Parser.tokenize sql
  |> List.filter (fun t -> t <> T.EOF)
  |> go None []
  |> List.map T.to_string
  |> String.concat " "

(* [rewrite], when given, is an equivalent statement written by hand,
   which the result check runs instead when the statement's own
   reference plan is too costly (see [reference_plan]). *)
type stmt = { label : string; sql : string; rewrite : string option }

(* Hand-decorrelated forms of the templates whose decorrelated plan
   passes [reference_cost_cap].  q17-all-parts compares each line with
   its own part's average quantity: a join with the per-part averages,
   which every lineitem's part has.  Its correlated plan takes minutes
   at SF 0.1 and its decorrelated plan joins lineitem with itself; this
   form runs in a fraction of a second without any rewrite. *)
let reference_rewrites =
  [ ( "q17-all-parts",
      "select sum(l_extendedprice) / 7.0 as avg_yearly from lineitem, part, \
       (select l2.l_partkey as t_partkey, 0.5 * avg(l2.l_quantity) as t_qty \
       from lineitem l2 group by l2.l_partkey) t \
       where p_partkey = l_partkey and t_partkey = p_partkey and l_quantity < t_qty" )
  ]

let template_pool () : stmt list =
  let seen = Hashtbl.create 32 in
  List.concat_map
    (fun (name, sql) ->
      List.filter_map
        (fun v ->
          let factor = variant_factors.(v) in
          let sql = perturb ~factor sql in
          if Hashtbl.mem seen sql then None
          else begin
            Hashtbl.replace seen sql ();
            let rewrite = Option.map (perturb ~factor) (List.assoc_opt name reference_rewrites) in
            Some { label = Printf.sprintf "%s/v%d" name v; sql; rewrite }
          end)
        (List.init (Array.length variant_factors) Fun.id))
    Workloads.all_named

(* Three statements sharing one closed subquery: the batch CSE case. *)
let q17_family ~(variant : int) : stmt list =
  let shared = "(select 0.2 * avg(l2.l_quantity) from lineitem l2)" in
  List.mapi
    (fun i sql ->
      { label = Printf.sprintf "q17-family-%d/v%d" i variant;
        sql = perturb ~factor:variant_factors.(variant) sql;
        rewrite = None })
    [ Printf.sprintf
        "select sum(l_extendedprice) / 7.0 as avg_yearly from lineitem, part where \
         p_partkey = l_partkey and p_brand = 'Brand#23' and l_quantity < %s"
        shared;
      Printf.sprintf "select count(*) as small_lines from lineitem where l_quantity < %s" shared;
      Printf.sprintf
        "select l_returnflag, sum(l_extendedprice) as rev from lineitem where l_quantity < %s \
         group by l_returnflag"
        shared
    ]

type request_op = Read of stmt | Batch of stmt list | Write

(* Items in a seeded order, each once per pass, reshuffled per pass;
   after the first pass [after], when given, serves instead.  Every
   run thus sends the same mix, and runs differ in order. *)
let deck ?after (rng : Rng.t) (items : 'a array) : unit -> 'a =
  let order = Array.copy items and pos = ref (Array.length items) and passes = ref 0 in
  fun () ->
    match after with
    | Some f when !passes > 0 && !pos >= Array.length order -> f ()
    | _ ->
        if !pos >= Array.length order then begin
          for i = Array.length order - 1 downto 1 do
            let j = Rng.int rng (i + 1) in
            let t = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- t
          done;
          pos := 0;
          incr passes
        end;
        incr pos;
        order.(!pos - 1)

let qgen ~seed case =
  { label = Printf.sprintf "qgen/%d/%d" seed case; sql = Testgen.Qgen.sql_of ~seed ~case; rewrite = None }

(* The request stream: a repeating block of [reads_per_batch] reads,
   then a write on write-mix, then one batch, in an order drawn from
   the run's seed.

   adhoc-cold sends generated statements (generator seed
   [adhoc_pool_seed]): a set of reads and batch triples in shuffled
   order, then further statements, so none repeats.  Planning time
   spans three orders of magnitude across generated statements and the
   median falls where they are sparse, so statements drawn per run made
   the run's median mostly a matter of which were drawn.  The other
   workloads cycle their template and batch variants, each once per
   pass. *)
let schedule (o : opts) : unit -> request_op =
  let rng = Rng.create o.seed in
  let next_read, next_batch =
    match o.wl with
    | Adhoc_cold ->
        let fresh = ref ((3 * adhoc_pool_batches) + adhoc_pool_reads) in
        let fresh () =
          incr fresh;
          qgen ~seed:adhoc_pool_seed (!fresh - 1)
        in
        (* batch triples are generator cases 0..71, reads 72..331 *)
        ( deck ~after:fresh rng
            (Array.init adhoc_pool_reads (fun i -> qgen ~seed:adhoc_pool_seed ((3 * adhoc_pool_batches) + i))),
          deck
            ~after:(fun () -> List.init 3 (fun _ -> fresh ()))
            rng
            (Array.init adhoc_pool_batches (fun b -> List.init 3 (fun k -> qgen ~seed:adhoc_pool_seed ((3 * b) + k)))) )
    | Serve_warm | Write_mix ->
        ( deck rng (Array.of_list (template_pool ())),
          deck rng (Array.init (Array.length variant_factors) (fun v -> q17_family ~variant:v)) )
  in
  let block = Queue.create () in
  fun () ->
    if Queue.is_empty block then begin
      for _ = 1 to reads_per_batch o.wl do Queue.push `Read block done;
      if o.wl = Write_mix then Queue.push `Write block;
      Queue.push `Batch block
    end;
    match Queue.pop block with
    | `Read -> Read (next_read ())
    | `Batch -> Batch (next_batch ())
    | `Write -> Write

(* ------------------------------------------------------------------ *)
(* Plan walks                                                         *)
(* ------------------------------------------------------------------ *)

open Relalg.Algebra

let rec expr_subqueries (e : expr) : op list =
  match e with
  | ColRef _ | Const _ -> []
  | Arith (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      expr_subqueries a @ expr_subqueries b
  | Not a | IsNull a | Like (a, _) -> expr_subqueries a
  | Case (branches, els) ->
      List.concat_map (fun (c, v) -> expr_subqueries c @ expr_subqueries v) branches
      @ (match els with Some e -> expr_subqueries e | None -> [])
  | Subquery q | Exists q -> [ q ]
  | InSub (a, q) | QuantCmp (_, _, a, q) -> expr_subqueries a @ [ q ]

(* Children in the order [Exec.Metrics] builds its tree: plan children,
   then subqueries embedded in the operator's expressions. *)
let metric_children (o : op) : op list =
  Relalg.Op.children o @ List.concat_map expr_subqueries (Relalg.Op.local_exprs o)

let rec fold_ops (f : 'a -> op -> 'a) (acc : 'a) (o : op) : 'a =
  List.fold_left (fold_ops f) (f acc o) (metric_children o)

let scan_columns (plan : op) : (string * string) list =
  List.sort_uniq compare
    (fold_ops
       (fun acc o ->
         match o with
         | TableScan { table; cols } -> List.map (fun (c : Relalg.Col.t) -> (table, c.name)) cols @ acc
         | _ -> acc)
       [] plan)

let tables_of (plan : op) : string list =
  List.sort_uniq compare (List.map fst (scan_columns plan))

let residual_applies (plan : op) : int =
  fold_ops (fun n o -> match o with Apply _ | SegmentApply _ -> n + 1 | _ -> n) 0 plan

let exec_class (o : op) : string =
  match o with
  | TableScan _ | CseScan _ | ConstTable _ | SegmentHole _ -> "scan"
  | Join _ -> "join"
  | GroupBy _ | ScalarAgg _ | LocalGroupBy _ -> "groupby"
  | Apply _ | SegmentApply _ -> "apply"
  | _ -> "other"

let exec_classes = [ "scan"; "join"; "groupby"; "apply"; "sort"; "other" ]

(* ------------------------------------------------------------------ *)
(* Environment and set-up                                             *)
(* ------------------------------------------------------------------ *)

type env = {
  svc : Service.t;
  eng : Engine.t;
  db : Storage.Database.t;
  store_dir : string option;
  gen_s : float;
  recover_s : float;
}

let rec rm_rf (path : string) : unit =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p (d : string) : unit =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let tables (db : Storage.Database.t) : string list =
  List.sort compare (Catalog.table_names db.Storage.Database.catalog)

let service_config (o : opts) : Service.config =
  { Service.default_config with domains; enable_cache = true; exec_mode = `Vector; seed = o.seed }

let teardown (env : env) : unit =
  Service.shutdown env.svc;
  (match env.store_dir with
  | Some dir ->
      Engine.close_store env.eng;
      rm_rf dir
  | None -> ());
  Gc.compact ()

(* Datagen, load, service creation, durable recovery and warm-up. *)
let setup (o : opts) ~(index : int) : env * float =
  let t0 = now () in
  (* one TPC-H instance per scale factor, as dbgen's: at SF 0.1 a
     per-seed instance moved selective templates (q17 matches a handful
     of parts) enough to move the run's median by a fifth *)
  let data = Datagen.Tpch_gen.database ~sf:o.sf () in
  let gen_s = now () -. t0 in
  let config = service_config o in
  let svc, recover_s, store_dir =
    match o.wl with
    | Write_mix ->
        let dir = Filename.concat o.out_dir (Printf.sprintf "store-%d-%d" (Unix.getpid ()) index) in
        rm_rf dir;
        mkdir_p dir;
        let cat = data.Storage.Database.catalog in
        let loader = Service.create_durable ~config ~dir cat in
        List.iter
          (fun t ->
            Service.load_table loader t (Storage.Table.to_rows (Storage.Database.table data t)))
          (tables data);
        ignore (Service.snapshot_now loader);
        Service.shutdown loader;
        Engine.close_store (Service.engine loader);
        let t1 = now () in
        let svc = Service.create_durable ~config ~dir cat in
        (svc, now () -. t1, Some dir)
    | Adhoc_cold | Serve_warm -> (Service.create ~config data, 0., None)
  in
  let eng = Service.engine svc in
  let warm sql = ignore (Engine.execute ~mode:`Vector eng (Engine.prepare eng sql)) in
  (match o.wl with
  | Adhoc_cold -> ()
  | Serve_warm | Write_mix ->
      List.iter (fun s -> warm s.sql) (template_pool ());
      Array.iteri
        (fun v _ -> ignore (Service.query_many svc (List.map (fun s -> s.sql) (q17_family ~variant:v))))
        variant_factors);
  let env = { svc; eng; db = Engine.database eng; store_dir; gen_s; recover_s } in
  (env, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Reference results                                                  *)
(* ------------------------------------------------------------------ *)

(* Each statement's reference bag comes from the row interpreter with
   the cache off, on a plan the full search never touched: the
   correlated plan on adhoc-cold, the decorrelated plan on the other
   workloads.  When that plan's estimated cost passes
   [reference_cost_cap], the second path serves: the decorrelated plan
   on adhoc-cold; on the others, the correlated plan of the statement's
   hand-written [rewrite] (of the statement itself when it has none).
   Plans are memoized per statement, bags per statement and generation
   of the tables the plan reads. *)
type refs = {
  ref_eng : Engine.t;
  primary : Optimizer.Config.t;
  fallback : Optimizer.Config.t;
  cost_cap : float;
  plans : (string, (Engine.prepared, string) result) Hashtbl.t;
  bags : (string * (string * int) list, (string list, string) result) Hashtbl.t;
  mutable computed : int;
  mutable fallbacks : int;  (** statements served by the second path *)
}

let make_refs (o : opts) (env : env) : refs =
  let base =
    List.fold_left
      (fun a t -> a + Storage.Table.row_count (Storage.Database.table env.db t))
      0 (tables env.db)
  in
  let primary, fallback =
    match o.wl with
    | Adhoc_cold -> (Optimizer.Config.correlated_only, Optimizer.Config.decorrelated_only)
    | Serve_warm | Write_mix -> (Optimizer.Config.decorrelated_only, Optimizer.Config.correlated_only)
  in
  { ref_eng = Engine.create env.db;
    primary;
    fallback;
    cost_cap = reference_cost_cap *. float_of_int base;
    plans = Hashtbl.create 64;
    bags = Hashtbl.create 64;
    computed = 0;
    fallbacks = 0;
  }

let reference_plan (r : refs) (s : stmt) : (Engine.prepared, string) result =
  match Hashtbl.find_opt r.plans s.sql with
  | Some p -> p
  | None ->
      let p =
        try
          let p = Engine.prepare ~config:r.primary ~use_cache:false r.ref_eng s.sql in
          if p.Engine.plan_cost <= r.cost_cap then Ok p
          else begin
            r.fallbacks <- r.fallbacks + 1;
            let sql = Option.value s.rewrite ~default:s.sql in
            Ok (Engine.prepare ~config:r.fallback ~use_cache:false r.ref_eng sql)
          end
        with e -> Error (Printexc.to_string e)
      in
      Hashtbl.replace r.plans s.sql p;
      p

let reference (r : refs) (db : Storage.Database.t) (s : stmt) : (string list, string) result =
  match reference_plan r s with
  | Error e -> Error e
  | Ok p -> (
      let gens =
        List.map
          (fun t -> (t, Storage.Table.generation (Storage.Database.table db t)))
          (tables_of p.Engine.plan)
      in
      match Hashtbl.find_opt r.bags (s.sql, gens) with
      | Some b -> b
      | None ->
          r.computed <- r.computed + 1;
          let b =
            try Ok (M.bag (Engine.execute ~mode:`Row r.ref_eng p).Engine.result.Exec.Executor.rows)
            with e -> Error (Printexc.to_string e)
          in
          Hashtbl.replace r.bags (s.sql, gens) b;
          b)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let span_ids = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add span_ids 1

(* [rename] names the span after its result. *)
let with_span ?rename (buf : M.span list ref) ~(req : int) ~(parent : int) (name : string)
    (f : unit -> 'a) : 'a =
  let id = fresh_id () in
  let start = now () in
  let finish name = buf := { M.id; req; name; parent = Some parent; start; stop = now () } :: !buf in
  match f () with
  | v ->
      finish (match rename with Some r -> r v | None -> name);
      v
  | exception e ->
      finish name;
      raise e

(* What one traced read did, filled in by the worker running its hook
   and read by the generator after the reply. *)
type traced = {
  mutable spans : M.span list;
  mutable hook_end : float;  (** when the hook returned; 0 if it never ran *)
  mutable prepared : Engine.prepared option;
  mutable execution : Engine.execution option;
  mutable execute_s : float;
  mutable search : Optimizer.Search.outcome option;
  mutable ndv_scans : int;
  mutable error : string option;
}

(* The layer state the traced run keeps beside the service: its own
   statistics (warmed before each replayed search) and the generation
   at which each NDV was last computed. *)
type tracer = {
  stats : Optimizer.Stats.t;
  ndv_gen : (string * string, int) Hashtbl.t;
  ndv_lock : Mutex.t;
}

let warm_ndv (tr : tracer) (db : Storage.Database.t) (plan : op) : int =
  List.fold_left
    (fun scans (t, c) ->
      let g = Storage.Table.generation (Storage.Database.table db t) in
      let fresh =
        Mutex.protect tr.ndv_lock (fun () ->
            match Hashtbl.find_opt tr.ndv_gen (t, c) with
            | Some g' when g' = g -> false
            | _ ->
                Hashtbl.replace tr.ndv_gen (t, c) g;
                true)
      in
      ignore (Optimizer.Stats.ndv tr.stats t c);
      if fresh then scans + 1 else scans)
    0 (scan_columns plan)

(* The stages of [Engine.prepare_bound], in its order, each under its
   own span; statistics are warmed just before the search. *)
let replay_stages (tr : tracer) (db : Storage.Database.t) (t : traced) buf ~req ~parent (sql : string) =
  let sp name f = with_span buf ~req ~parent name f in
  let config = Optimizer.Config.full in
  let cat = db.Storage.Database.catalog in
  let penv = Catalog.props_env cat in
  let ast = sp "sqlfront.parse" (fun () -> Sqlfront.Parser.parse sql) in
  let bound = sp "sqlfront.bind" (fun () -> Sqlfront.Binder.bind_query cat [] ast) in
  let opts =
    { Normalize.env = penv;
      decorrelate = config.decorrelate;
      simplify_oj = config.simplify_oj;
      class2 = config.class2;
    }
  in
  let stages = sp "normalize.run" (fun () -> Normalize.run opts bound.Sqlfront.Binder.op) in
  let violations =
    sp "relalg.verify" (fun () ->
        Relalg.Verify.check stages.Normalize.normalized
        @ Relalg.Verify.check_oj_simplification ~before:stages.decorrelated
            ~after:stages.oj_simplified)
  in
  t.ndv_scans <- sp "optimizer.stats" (fun () -> warm_ndv tr db stages.normalized);
  let outcome =
    sp "optimizer.search" (fun () ->
        Optimizer.Search.optimize ~record_trace:true config tr.stats ~env:penv stages.normalized)
  in
  t.search <- Some outcome;
  let violations =
    violations
    @ sp "relalg.verify" (fun () ->
          Relalg.Verify.check ~expect_schema:(Relalg.Op.schema stages.normalized) outcome.best)
  in
  ignore (sp "analysis.lint" (fun () -> Analysis.Lint.run ~expect:(Analysis.Lint.of_config config) ~env:penv outcome.best));
  if violations <> [] then t.error <- Some "replayed plan failed verification"

(* The hook a traced read runs inside its worker, before the service
   serves the statement itself: the cached prepare, the stages again on
   a miss, then execution with operator metrics.  The hook is the
   service's one seam for running caller code inside a worker.  The
   service's own pass after it finds the plan cached and executes the
   statement a second time; its reply is the result that is checked. *)
let traced_work (tr : tracer) (env : env) (t : traced) ~req ~parent (sql : string) () =
  let buf = ref [] in
  (try
     (* a prepare that missed compiled the statement inside the engine;
        the replayed stages time that work again, stage by stage *)
     let rename (p : Engine.prepared) =
       if p.Engine.cache = Some `Hit then "cache.prepare" else "cache.compile"
     in
     let p = with_span ~rename buf ~req ~parent "cache.prepare" (fun () -> Engine.prepare env.eng sql) in
     t.prepared <- Some p;
     if p.Engine.cache <> Some `Hit then replay_stages tr env.db t buf ~req ~parent sql;
     let t0 = now () in
     let e =
       with_span buf ~req ~parent "vexec.execute" (fun () ->
           Engine.execute ~collect_metrics:true ~mode:`Vector env.eng p)
     in
     t.execute_s <- now () -. t0;
     t.execution <- Some e
   with e -> t.error <- Some (Printexc.to_string e));
  t.spans <- !buf;
  t.hook_end <- now ()

(* ------------------------------------------------------------------ *)
(* Measurement state                                                  *)
(* ------------------------------------------------------------------ *)

type checked = { c_stmt : stmt; c_rows : Relalg.Value.t array list }

type op_sample = { o_label : string; o_op : string; o_est : float; o_act : float; o_q : float }

type state = {
  mutable active : float;  (** measured seconds before the current window *)
  mutable window_start : float;
  mutable reads : int;
  mutable batch_stmts : int;
  mutable writes : int;
  mutable failed : int;
  mutable wrong : int;
  mutable degraded : int;  (** reads the service served by its fallback path *)
  mutable retries : int;  (** transient-failure retries the replies report *)
  mutable query_ms : float list;
  mutable queued_ms : float list;
  mutable busy_s : float;
  mutable batch_ms : float list;
  mutable write_ms : float list;
  mutable pending : checked list;  (** results awaiting their reference check *)
  mutable heap_words : int;  (** largest major heap seen at a reply *)
  mutable errors : string list;
  (* traced run only *)
  mutable spans : M.span list;
  mutable provenance : (string * int) list;
  mutable hit_prepare_us : float list;
  mutable searches : Optimizer.Search.outcome list;
  mutable ndv_scans : int;
  mutable residual_apply : int;
  mutable exec_self : (string * float) list;  (** class -> seconds *)
  mutable rows_processed : int;
  mutable apply_bindings : int;
  mutable apply_dedup : int;
  mutable bridge : int;
  mutable pending_ops : (string * Engine.prepared * Exec.Metrics.node * float) list;
      (** traced executions awaiting operator accounting *)
  mutable op_samples : op_sample list;
}

let elapsed (st : state) = st.active +. (now () -. st.window_start)

let pause (st : state) = st.active <- elapsed st

let resume (st : state) = st.window_start <- now ()

let bump assoc key d = (key, d +. Option.value ~default:0. (List.assoc_opt key assoc)) :: List.remove_assoc key assoc

let note_error (st : state) (what : string) =
  st.failed <- st.failed + 1;
  if List.length st.errors < 5 then st.errors <- what :: st.errors

(* Exec self time by operator class, and q-error per operator, from one
   metrics tree zipped with its plan.  Time the execution spent outside
   the operator tree is sorting when the statement has ORDER BY. *)
let record_operators (st : state) (tr : tracer) ~(label : string) (p : Engine.prepared)
    (root : Exec.Metrics.node) ~(execute_s : float) =
  let env = Optimizer.Card.make_env tr.stats p.Engine.plan in
  let rec walk (o : op) (n : Exec.Metrics.node) =
    let kids = metric_children o in
    let kid_s =
      List.fold_left (fun a (c : Exec.Metrics.node) -> a +. c.Exec.Metrics.elapsed_s) 0. n.Exec.Metrics.children
    in
    st.exec_self <- bump st.exec_self (exec_class o) (Float.max 0. (n.elapsed_s -. kid_s));
    if n.invocations > 0 then begin
      let act = float_of_int n.rows_out /. float_of_int n.invocations in
      let est = Optimizer.Card.estimate env o in
      st.op_samples <-
        { o_label = label; o_op = Lazy.force n.label; o_est = est; o_act = act; o_q = M.qerror ~est ~act }
        :: st.op_samples
    end;
    if List.length kids = List.length n.children then List.iter2 walk kids n.children
  in
  walk p.Engine.plan root;
  let outside = Float.max 0. (execute_s -. root.Exec.Metrics.elapsed_s) in
  st.exec_self <- bump st.exec_self (if p.Engine.bound.Sqlfront.Binder.order <> [] then "sort" else "other") outside

(* Compare every pending result with its reference; runs outside the
   timed window. *)
let check (st : state) (r : refs) (tr : tracer) (env : env) =
  List.iter
    (fun c ->
      match reference r env.db c.c_stmt with
      | Ok want ->
          let got = M.bag c.c_rows in
          if not (M.bags_equal got want) then begin
            st.wrong <- st.wrong + 1;
            let only_got, only_want = M.bag_diff got want in
            Printf.eprintf "WRONG RESULT %s: %d rows only in the result, %d only in the reference\n  %s\n%!"
              c.c_stmt.label (List.length only_got) (List.length only_want) c.c_stmt.sql
          end
      | Error e ->
          st.wrong <- st.wrong + 1;
          Printf.eprintf "REFERENCE FAILED %s: %s\n%!" c.c_stmt.label e)
    st.pending;
  st.pending <- [];
  List.iter
    (fun (label, p, root, execute_s) -> record_operators st tr ~label p root ~execute_s)
    st.pending_ops;
  st.pending_ops <- []

(* ------------------------------------------------------------------ *)
(* The closed loop                                                    *)
(* ------------------------------------------------------------------ *)

type inflight = {
  i_stmt : stmt;
  i_ticket : (Service.ticket, Service.error) result;
  i_submit : float;
  i_req : int;  (** request id, also the id of its root span *)
  i_worker_span : int;
  i_traced : traced option;
}

let submit (o : opts) (env : env) (tr : tracer) (s : stmt) : inflight =
  let req = fresh_id () and worker = fresh_id () in
  let traced =
    if o.trace then
      Some
        { spans = [];
          hook_end = 0.;
          prepared = None;
          execution = None;
          execute_s = 0.;
          search = None;
          ndv_scans = 0;
          error = None;
        }
    else None
  in
  let request =
    match traced with
    | None -> Service.request ~session:"bench" s.sql
    | Some t -> Service.request ~session:"bench" ~chaos:(traced_work tr env t ~req ~parent:worker s.sql) s.sql
  in
  let i_submit = now () in
  { i_stmt = s;
    i_ticket = Service.submit env.svc request;
    i_submit;
    i_req = req;
    i_worker_span = worker;
    i_traced = traced;
  }

let provenance_name (p : Engine.prepared) =
  match p.Engine.cache with
  | Some `Hit -> "hit"
  | Some `Miss -> "miss"
  | Some `Stale -> "stale"
  | None -> "bypass"

let finish_traced (st : state) (i : inflight) (reply : Service.reply) (t : traced) =
  let s0 = i.i_submit in
  let pickup = s0 +. reply.Service.queued_s and stop = s0 +. reply.total_s in
  let span id parent name start stop = { M.id; req = i.i_req; name; parent; start; stop } in
  let serve =
    if t.hook_end > 0. then [ span (fresh_id ()) (Some i.i_worker_span) "service.serve" t.hook_end stop ] else []
  in
  st.spans <-
    List.rev_append
      (span i.i_req None "service.request" s0 stop
      :: span (fresh_id ()) (Some i.i_req) "service.queue" s0 pickup
      :: span i.i_worker_span (Some i.i_req) "service.worker" pickup stop
      :: (serve @ t.spans))
      st.spans;
  (match t.prepared with
  | Some p ->
      let kind = provenance_name p in
      st.provenance <- (kind, 1 + Option.value ~default:0 (List.assoc_opt kind st.provenance)) :: List.remove_assoc kind st.provenance;
      if kind = "hit" then
        List.iter
          (fun (s : M.span) ->
            if s.name = "cache.prepare" then st.hit_prepare_us <- ((s.stop -. s.start) *. 1e6) :: st.hit_prepare_us)
          t.spans;
      st.residual_apply <- st.residual_apply + residual_applies p.Engine.plan
  | None -> ());
  Option.iter (fun s -> st.searches <- s :: st.searches) t.search;
  st.ndv_scans <- st.ndv_scans + t.ndv_scans;
  match (t.prepared, t.execution) with
  | Some p, Some e ->
      st.rows_processed <- st.rows_processed + e.Engine.rows_processed;
      st.apply_bindings <- st.apply_bindings + e.apply_bindings;
      st.apply_dedup <- st.apply_dedup + e.apply_dedup_hits;
      st.bridge <- st.bridge + e.bridge_crossings;
      Option.iter
        (fun root -> st.pending_ops <- (i.i_stmt.label, p, root, t.execute_s) :: st.pending_ops)
        e.metrics
  | _ -> ()

let finish_read (st : state) (env : env) (i : inflight) =
  match i.i_ticket with
  | Error e -> note_error st (i.i_stmt.label ^ ": " ^ Service.error_to_string e)
  | Ok ticket -> (
      let reply = Service.await env.svc ticket in
      st.heap_words <- max st.heap_words (Gc.quick_stat ()).Gc.heap_words;
      st.query_ms <- (reply.total_s *. 1e3) :: st.query_ms;
      st.queued_ms <- (reply.queued_s *. 1e3) :: st.queued_ms;
      st.busy_s <- st.busy_s +. (reply.total_s -. reply.queued_s);
      st.retries <- st.retries + reply.retries;
      (* a degraded read was served by the correlated row fallback, so
         its latency is not the vector path's: it fails the run *)
      if reply.degraded then begin
        st.degraded <- st.degraded + 1;
        if List.length st.errors < 5 then st.errors <- (i.i_stmt.label ^ ": degraded") :: st.errors
      end;
      let traced_error =
        match i.i_traced with
        | None -> None
        | Some t ->
            finish_traced st i reply t;
            t.error
      in
      match (reply.outcome, traced_error) with
      | Error e, _ -> note_error st (i.i_stmt.label ^ ": " ^ Service.error_to_string e)
      | Ok _, Some m -> note_error st (i.i_stmt.label ^ ": traced pass: " ^ m)
      | Ok e, None -> st.pending <- { c_stmt = i.i_stmt; c_rows = e.Engine.result.Exec.Executor.rows } :: st.pending)

let run_batch (o : opts) (st : state) (env : env) (ss : stmt list) =
  st.batch_stmts <- st.batch_stmts + List.length ss;
  let t0 = now () in
  match Service.query_many env.svc (List.map (fun s -> s.sql) ss) with
  | b ->
      let t1 = now () in
      st.batch_ms <- ((t1 -. t0) *. 1e3) :: st.batch_ms;
      if o.trace then begin
        let id = fresh_id () in
        st.spans <- { M.id; req = id; name = "service.query_many"; parent = None; start = t0; stop = t1 } :: st.spans
      end;
      List.iter2
        (fun s (it : Engine.batch_item) ->
          st.pending <- { c_stmt = s; c_rows = it.item_execution.result.rows } :: st.pending)
        ss b.Engine.items
  | exception e -> List.iter (fun s -> note_error st (s.label ^ ": " ^ Printexc.to_string e)) ss

(* A new lineitem: a copy of a random existing line under a fresh line
   number of the same order (so keys and foreign keys stay valid), with
   a random quantity. *)
let write (o : opts) (st : state) (env : env) (rng : Rng.t) =
  let tb = Storage.Database.table env.db "lineitem" in
  let rows, n = Storage.Table.rows_view tb in
  let row = Array.copy rows.(Rng.int rng n) in
  let pos c = Option.get (Storage.Table.column_position tb c) in
  row.(pos "l_linenumber") <- Relalg.Value.Int (100 + st.writes);
  let q = 1 + Rng.int rng 50 in
  row.(pos "l_quantity") <-
    (match row.(pos "l_quantity") with
    | Relalg.Value.Float _ -> Relalg.Value.Float (float_of_int q)
    | _ -> Relalg.Value.Int q);
  let t0 = now () in
  match Service.append_row env.svc "lineitem" row with
  | () ->
      let t1 = now () in
      st.writes <- st.writes + 1;
      st.write_ms <- ((t1 -. t0) *. 1e3) :: st.write_ms;
      if o.trace then begin
        let id = fresh_id () in
        st.spans <- { M.id; req = id; name = "storage.append"; parent = None; start = t0; stop = t1 } :: st.spans
      end
  | exception e -> note_error st ("append: " ^ Printexc.to_string e)

let wal_bytes (env : env) : int =
  match env.store_dir with
  | None -> 0
  | Some dir ->
      Array.fold_left
        (fun acc f ->
          if String.length f > 4 && String.sub f 0 4 = "wal-" then
            acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
          else acc)
        0 (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

(* A fixed CPU task, timed outside set-up and the measured window: 20
   million steps of an integer generator, which stay in registers and
   allocate nothing, run on [domains] domains at once, as the workers
   run; the wall time of 5 repetitions, in ms.  Runs whose calibration
   differs were made on a host running at a different speed, or with
   fewer free cores, and compare.py will not call them apart. *)
let calibrate () : float list =
  let spin () =
    let x = ref 1 and acc = ref 0 in
    for _ = 1 to 20_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      acc := !acc lxor (!x lsr 7)
    done;
    !acc
  in
  List.init 5 (fun _ ->
      let t0 = now () in
      List.iter (fun d -> ignore (Sys.opaque_identity (Domain.join d))) (List.init domains (fun _ -> Domain.spawn spin));
      (now () -. t0) *. 1e3)

let med0 xs = if xs = [] then 0. else M.median xs
let pct0 ~q xs = if xs = [] then 0. else M.percentile ~q xs

let span_self_ms (st : state) : (string * float) list =
  List.fold_left
    (fun acc ((s : M.span), self) -> bump acc s.name (self *. 1e3))
    [] (M.self_times st.spans)

let write_file (path : string) (lines : string list) =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let cardinality_report (o : opts) (st : state) : string list =
  let qs = List.map (fun s -> s.o_q) st.op_samples in
  let seen = Hashtbl.create 16 in
  let worst =
    List.filteri
      (fun i _ -> i < 10)
      (List.filter
         (fun s ->
           let k = (s.o_label, s.o_op) in
           (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true))
         (List.sort (fun a b -> compare b.o_q a.o_q) st.op_samples))
  in
  Printf.sprintf "cardinality (%s, seed %d): %d operator executions, q-error p50 %.2f p90 %.2f p99 %.2f max %.2f"
    o.wl_name o.seed (List.length qs) (pct0 ~q:0.5 qs) (pct0 ~q:0.9 qs) (pct0 ~q:0.99 qs)
    (List.fold_left Float.max 0. qs)
  :: "worst operators (q-error, estimated rows, actual rows per invocation, statement, operator):"
  :: List.map
       (fun s ->
         let op = if String.length s.o_op > 90 then String.sub s.o_op 0 90 ^ "..." else s.o_op in
         Printf.sprintf "  %9.1f  est %10.1f  act %10.1f  %-22s %s" s.o_q s.o_est s.o_act s.o_label op)
       worst

let () =
  let o = parse_args () in
  mkdir_p o.out_dir;
  let started = now () in
  let calibration = calibrate () in
  (* set up several times and keep the last, so set-up time is a median *)
  let env = ref None and setup_s = ref [] and gen_s = ref [] and recover_s = ref [] in
  let k = ref 0 and spent = ref 0. in
  while !k < min_setups || (!spent < setup_budget_s && !k < max_setups) do
    Option.iter teardown !env;
    let e, s = setup o ~index:!k in
    env := Some e;
    incr k;
    spent := !spent +. s;
    setup_s := s :: !setup_s;
    gen_s := e.gen_s :: !gen_s;
    recover_s := e.recover_s :: !recover_s
  done;
  let env = Option.get !env in
  Gc.compact ();
  let refs = make_refs o env in
  let tr = { stats = Optimizer.Stats.create env.db; ndv_gen = Hashtbl.create 64; ndv_lock = Mutex.create () } in
  let st =
    { active = 0.; window_start = now (); reads = 0; batch_stmts = 0; writes = 0; failed = 0; wrong = 0; degraded = 0; retries = 0;
      query_ms = []; queued_ms = []; busy_s = 0.; batch_ms = []; write_ms = []; pending = []; heap_words = 0; errors = [];
      spans = []; provenance = []; hit_prepare_us = []; searches = []; ndv_scans = 0; residual_apply = 0;
      exec_self = []; rows_processed = 0; apply_bindings = 0; apply_dedup = 0; bridge = 0;
      pending_ops = []; op_samples = [] }
  in
  let next = schedule o in
  let write_rng = Rng.create (o.seed + 1) in
  let svc0 = Service.stats env.svc in
  (* the service is created with its caching tier on *)
  let cache_stats () = Option.get (Engine.cache_stats env.eng) in
  let cache0 = cache_stats () in
  let wal0 = wal_bytes env in
  let inflight = Queue.create () in
  let await_oldest () = finish_read st env (Queue.pop inflight) in
  let drain () = while not (Queue.is_empty inflight) do await_oldest () done in
  resume st;
  while elapsed st < o.seconds do
    match next () with
    | Read s ->
        while Queue.length inflight >= outstanding do await_oldest () done;
        st.reads <- st.reads + 1;
        Queue.push (submit o env tr s) inflight
    | Batch ss ->
        (* the batch runs alone on this thread: beside a read of
           whatever weight the order put there, its latency spread
           over seeds nearly reached the bound *)
        drain ();
        run_batch o st env ss
    | Write ->
        (* reads before a write all finish first, so each result is
           checked against exactly the data it ran on *)
        drain ();
        pause st;
        check st refs tr env;
        resume st;
        write o st env write_rng
  done;
  drain ();
  pause st;
  let svc1 = Service.stats env.svc in
  let cache1 = cache_stats () in
  let wal1 = wal_bytes env in
  let calibration = calibration @ calibrate () in
  let peak_heap_mb = float_of_int (st.heap_words * (Sys.word_size / 8)) /. 1048576. in
  check st refs tr env;
  let table_rows =
    List.map (fun t -> (t, M.Int (Storage.Table.row_count (Storage.Database.table env.db t)))) (tables env.db)
  in
  teardown env;
  (* ---- end-to-end ---- *)
  let attempted = st.reads + st.batch_stmts + st.writes in
  let completed = st.reads + st.batch_stmts - st.failed in
  let e2e =
    [ ("setup_s", "s", M.median !setup_s);
      ("query_p50_ms", "ms", med0 st.query_ms);
      ("query_p95_ms", "ms", pct0 ~q:0.95 st.query_ms);
      ("throughput_qps", "1/s", float_of_int completed /. st.active);
      ("batch_p50_ms", "ms", med0 st.batch_ms)
    ]
  in
  (* ---- per layer ---- *)
  let reads = float_of_int (max 1 st.reads) in
  let self = span_self_ms st in
  let self_ms names = List.fold_left (fun a n -> a +. Option.value ~default:0. (List.assoc_opt n self)) 0. names /. reads in
  let hits = Option.value ~default:0 (List.assoc_opt "hit" st.provenance) in
  let prov_total = List.fold_left (fun a (_, n) -> a + n) 0 st.provenance in
  let searches = st.searches in
  let n_search = float_of_int (max 1 (List.length searches)) in
  let traces = List.filter_map (fun (s : Optimizer.Search.outcome) -> s.trace) searches in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let fired = sum (fun (t : Optimizer.Search.trace) -> t.total_fired) traces in
  let dups = sum (fun (t : Optimizer.Search.trace) -> t.total_duplicates) traces in
  let qs = List.map (fun s -> s.o_q) st.op_samples in
  let exec_ms cls = 1e3 *. Option.value ~default:0. (List.assoc_opt cls st.exec_self) /. reads in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let per_layer =
    [ ("service.queue_wait_p50_ms", "ms", med0 st.queued_ms);
      ("service.busy_ratio", "ratio", st.busy_s /. (float_of_int domains *. st.active));
      ("service.retried", "count", float_of_int (svc1.retried - svc0.retried));
      ("service.degraded", "count", float_of_int (svc1.degraded - svc0.degraded));
      ("cache.plan_hit_ratio", "ratio", ratio hits prov_total);
      ("cache.hit_prepare_us", "us", med0 st.hit_prepare_us);
      ("cache.plan_invalidations", "count", float_of_int (cache1.plan_invalidations - cache0.plan_invalidations));
      ("cache.plan_evictions", "count", float_of_int (cache1.plan_evictions - cache0.plan_evictions));
      ("cache.cse_materializations", "count", float_of_int (cache1.cse_materializations - cache0.cse_materializations));
      ("cache.cse_hits", "count", float_of_int (cache1.cse_hits - cache0.cse_hits));
      ("sqlfront.parse_bind_ms", "ms", self_ms [ "sqlfront.parse"; "sqlfront.bind" ]);
      ("normalize.run_ms", "ms", self_ms [ "normalize.run" ]);
      ("relalg.verify_ms", "ms", self_ms [ "relalg.verify" ]);
      ("analysis.lint_ms", "ms", self_ms [ "analysis.lint" ]);
      ("normalize.residual_apply", "count", float_of_int st.residual_apply /. reads);
      ("optimizer.search_ms", "ms", self_ms [ "optimizer.search" ]);
      ("optimizer.search_explored", "count",
       float_of_int (sum (fun (s : Optimizer.Search.outcome) -> s.explored) searches) /. n_search);
      ("optimizer.search_exhausted_ratio", "ratio",
       ratio (List.length (List.filter (fun (t : Optimizer.Search.trace) -> t.exhausted) traces)) (List.length traces));
      ("optimizer.search_dup_ratio", "ratio", ratio dups fired);
      ("rules.fired", "count", float_of_int fired /. n_search);
      ("optimizer.stats_ms", "ms", self_ms [ "optimizer.stats" ]);
      ("optimizer.ndv_scans", "count", float_of_int st.ndv_scans);
      ("optimizer.qerror_p50", "ratio", pct0 ~q:0.5 qs);
      ("optimizer.qerror_p90", "ratio", pct0 ~q:0.9 qs);
      ("vexec.execute_ms", "ms", self_ms [ "vexec.execute" ]) ]
    @ List.map (fun c -> ("exec.self_ms." ^ c, "ms", exec_ms c)) exec_classes
    @ [ ("exec.rows_processed", "count", float_of_int st.rows_processed /. reads);
        ("vexec.apply_dedup_ratio", "ratio", ratio st.apply_dedup (st.apply_dedup + st.apply_bindings));
        ("vexec.bridge_crossings", "count", float_of_int st.bridge);
        ("storage.append_ms", "ms", M.mean st.write_ms);
        ("storage.wal_bytes_per_row", "B", ratio (wal1 - wal0) st.writes);
        ("storage.recover_s", "s", M.median !recover_s);
        ("datagen.generate_s", "s", M.median !gen_s);
        ("write_p50_ms", "ms", med0 st.write_ms);
        ("write_p95_ms", "ms", pct0 ~q:0.95 st.write_ms);
        ("peak_heap_mb", "MB", peak_heap_mb);
        ("failed_ratio", "ratio", ratio st.failed attempted);
        ("wrong_results", "count", float_of_int st.wrong) ]
  in
  let metrics = if o.trace then per_layer else e2e in
  let metric_json l = M.Obj (List.map (fun (n, u, v) -> (n, M.Obj [ ("value", M.Num v); ("unit", M.Str u) ])) l) in
  let n_q = List.length st.query_ms and n_b = List.length st.batch_ms and n_w = List.length st.write_ms in
  let metadata =
    M.Obj
      [ ("workload", M.Str o.wl_name);
        ("seed", M.Int o.seed);
        ("sf", M.Num o.sf);
        ("table_rows", M.Obj table_rows);
        ("nproc", M.Int (Domain.recommended_domain_count ()));
        ("domains", M.Int domains);
        ("outstanding", M.Int outstanding);
        ("trace", M.Bool o.trace);
        ("measured_s", M.Num st.active);
        ("reads", M.Int st.reads);
        ("batches", M.Int n_b);
        ("batch_statements", M.Int st.batch_stmts);
        ("writes", M.Int st.writes);
        ("samples", M.Obj [ ("query", M.Int n_q); ("batch", M.Int n_b); ("write", M.Int n_w) ]);
        ("percentile_supported",
         M.Obj
           [ ("query_p50", M.Bool (M.supported ~q:0.5 n_q)); ("query_p95", M.Bool (M.supported ~q:0.95 n_q));
             ("batch_p50", M.Bool (M.supported ~q:0.5 n_b)); ("write_p50", M.Bool (M.supported ~q:0.5 n_w));
             ("write_p95", M.Bool (M.supported ~q:0.95 n_w)) ]);
        ("query_p50_ms_by_half",
         (* st.query_ms is newest first *)
         let n = List.length st.query_ms in
         let late = List.filteri (fun i _ -> i < n / 2) st.query_ms
         and early = List.filteri (fun i _ -> i >= n / 2) st.query_ms in
         M.Arr [ M.Num (med0 early); M.Num (med0 late) ]);
        ("query_ms_deciles", M.Arr (List.init 11 (fun i -> M.Num (pct0 ~q:(float_of_int i /. 10.) st.query_ms))));
        ("plan_cache", M.Obj [ ("entries", M.Int cache1.plan_entries); ("bytes", M.Int cache1.plan_bytes);
                               ("evictions", M.Int cache1.plan_evictions) ]);
        ("write_p50_ms", M.Num (med0 st.write_ms));
        ("write_p95_ms", M.Num (pct0 ~q:0.95 st.write_ms));
        ("failed", M.Int st.failed);
        ("wrong_results", M.Int st.wrong);
        ("degraded_reads", M.Int st.degraded);
        ("retries", M.Int st.retries);
        ("references_computed", M.Int refs.computed);
        ("reference_fallbacks", M.Int refs.fallbacks);
        ("setups", M.Int (List.length !setup_s));
        ("peak_heap_mb", M.Num peak_heap_mb);
        ("end_to_end", metric_json e2e);
        ("started_unix", M.Num started);
        ("ended_unix", M.Num (now ()));
        ("calibration_ms", M.Num (M.median calibration));
        ("git_commit", M.Str (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown"));
      ]
  in
  List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev st.errors);
  if o.trace then begin
    let tag = Printf.sprintf "%s-seed%d" o.wl_name o.seed in
    let t_base = List.fold_left (fun a (s : M.span) -> Float.min a s.start) infinity st.spans in
    write_file (Filename.concat o.out_dir ("spans-" ^ tag ^ ".jsonl"))
      (List.rev_map
         (fun (s : M.span) ->
           M.to_string
             (M.Obj
                [ ("req", M.Int s.req); ("id", M.Int s.id);
                  ("parent", match s.parent with Some p -> M.Int p | None -> M.Null);
                  ("name", M.Str s.name);
                  ("start_ms", M.Num ((s.start -. t_base) *. 1e3));
                  ("end_ms", M.Num ((s.stop -. t_base) *. 1e3)) ]))
         st.spans);
    let card = cardinality_report o st in
    write_file (Filename.concat o.out_dir ("cardinality-" ^ tag ^ ".txt")) card;
    List.iter print_endline card;
    (* cache.compile is re-timed by the stage spans, and service.serve
       is the service's own second pass over the statement *)
    let repeated n = n = "cache.compile" || n = "service.serve" in
    let total = List.fold_left (fun a (n, v) -> if repeated n then a else a +. v) 0. self in
    print_endline "self time by span (ms per read, share of all span self time but repeated work):";
    List.iter
      (fun (n, v) ->
        if repeated n then Printf.printf "  %-22s %10.3f  (repeated work)\n" n (v /. reads)
        else Printf.printf "  %-22s %10.3f  %5.1f%%\n" n (v /. reads) (100. *. v /. Float.max 1e-9 total))
      (List.sort (fun (_, a) (_, b) -> compare b a) self)
  end;
  List.iter (fun (n, u, v) -> Printf.printf "%-34s %14.4f %s\n" n v u) metrics;
  print_endline (M.to_string (M.Obj [ ("metadata", metadata) ]));
  print_endline
    (M.to_string
       (M.Obj
          [ ("correct", M.Bool (st.wrong = 0 && st.failed = 0 && st.degraded = 0));
            ("attempted", M.Int (max 1 attempted));
            ("failed", M.Int st.failed);
            ("metrics", metric_json metrics) ]))
