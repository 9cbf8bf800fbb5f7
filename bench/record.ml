(* The one record-and-gate helper of the Q series. An entry opens a record
   with [start], names each number once next to its value — [line] and
   [table] print what they record, [add] records without printing —
   checks each acceptance gate with [gate], and ends with [finish], which
   writes _bench/<id>.json in the schema every entry shares:

     { "id": "q14", "generated_by": "dune exec bench/main.exe -- q14",
       "values": { ... }, "gates": [ { "gate": "...", "pass": true } ],
       "pass": true }

   and only then fails the process if any gate failed. _bench/ is not
   tracked: the BENCH_PR*.json files are frozen history that no command
   rewrites. Invariant violations (lost committed work, engines that
   disagree) stay plain exceptions: they are bugs, not measurements. *)

type json =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | List of json list
  | Obj of (string * json) list

let write_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write b indent = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (if Float.is_finite f then Printf.sprintf "%.6g" f else "null")
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Str s -> write_string b s
  | List l -> container b indent '[' ']' (List.map (fun v -> (None, v)) l)
  | Obj fields -> container b indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) fields)

(* A container of scalars goes on one line; any other puts one element
   per line, indented. *)
and container b indent opening closing elts =
  let flat = List.for_all (function _, (List _ | Obj _) -> false | _ -> true) elts in
  let break n =
    if flat then Buffer.add_char b ' '
    else begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make n ' ')
    end
  in
  Buffer.add_char b opening;
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_char b ',';
      break (indent + 2);
      Option.iter
        (fun k ->
          write_string b k;
          Buffer.add_string b ": ")
        key;
      write b (indent + 2) v)
    elts;
  if elts <> [] then break indent;
  Buffer.add_char b closing

type t = {
  id : string;
  ppf : Format.formatter;
  mutable values : (string * json) list;  (* newest first *)
  mutable gates : (string * bool) list;  (* newest first *)
}

let start ppf id title =
  Workload.section ppf title;
  { id; ppf; values = []; gates = [] }

let add t fields = t.values <- List.rev_append fields t.values

let show = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf (if Float.abs f >= 1000.0 then "%.0f" else "%.4g") f
  | Bool x -> string_of_bool x
  | Str s -> s
  | (List _ | Obj _) as v ->
      let b = Buffer.create 64 in
      write b 0 v;
      Buffer.contents b

(* One output line: [label], then the values joined by " / ". *)
let line t label fields =
  Workload.kv t.ppf label "%s" (String.concat " / " (List.map (fun (_, v) -> show v) fields));
  add t fields

(* Rows sharing one set of named columns: printed as a table under a
   header of the names (first column left-aligned), recorded as a list of
   objects under [name]. *)
let table t name rows =
  let cols = match rows with row :: _ -> List.map fst row | [] -> [] in
  let width i col =
    List.fold_left
      (fun w row -> max w (String.length (show (snd (List.nth row i)))))
      (String.length col) rows
  in
  let widths = List.mapi width cols in
  let print cells =
    List.iteri
      (fun i (w, c) -> Format.fprintf t.ppf (if i = 0 then "  %-*s" else "  %*s") w c)
      (List.combine widths cells);
    Format.fprintf t.ppf "@."
  in
  print cols;
  List.iter (fun row -> print (List.map (fun (_, v) -> show v) row)) rows;
  add t [ (name, List (List.map (fun row -> Obj row) rows)) ]

let gate t name ~ok =
  Workload.kv t.ppf ("acceptance: " ^ name) "%s" (if ok then "PASS" else "FAIL");
  t.gates <- (name, ok) :: t.gates

(* A paper-figure check: a gate printed as the figure's verdict. *)
let check t name ~ok =
  Workload.kv t.ppf name "%s" (if ok then "CONFIRMED" else "VIOLATED");
  t.gates <- (name, ok) :: t.gates

let dir = "_bench"

let finish t =
  let gates = List.rev t.gates in
  let failed = List.filter_map (fun (name, ok) -> if ok then None else Some name) gates in
  let doc =
    Obj
      [
        ("id", Str t.id);
        ("generated_by", Str ("dune exec bench/main.exe -- " ^ t.id));
        ("values", Obj (List.rev t.values));
        ( "gates",
          List (List.map (fun (name, ok) -> Obj [ ("gate", Str name); ("pass", Bool ok) ]) gates) );
        ("pass", Bool (failed = []));
      ]
  in
  let b = Buffer.create 4096 in
  write b 0 doc;
  Buffer.add_char b '\n';
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (t.id ^ ".json") in
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b);
  Workload.kv t.ppf "wrote" "%s" path;
  if failed <> [] then begin
    Format.pp_print_flush t.ppf ();
    List.iter (fun name -> Printf.eprintf "%s: gate failed: %s\n" t.id name) failed;
    exit 1
  end

(* -- timing: CPU seconds, noise only ever adds time -- *)

let timed f =
  let t0 = Sys.time () in
  f ();
  Sys.time () -. t0

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    best := Float.min !best (timed f)
  done;
  !best

(* Two loops timed as interleaved pairs: one sample of each per round, min
   of each. Two separate blocks would let GC or CPU drift between them
   masquerade as a difference between the loops. *)
let pairs n f g =
  let t_f = ref infinity and t_g = ref infinity in
  for _ = 1 to n do
    t_f := Float.min !t_f (timed f);
    t_g := Float.min !t_g (timed g)
  done;
  (!t_f, !t_g)

(* The same loop with CRC checks on and off. *)
let on_off n f =
  let module Crashpoint = Aries_util.Crashpoint in
  pairs n f (fun () ->
      Crashpoint.enable Crashpoint.Crc_check_disabled;
      Fun.protect ~finally:(fun () -> Crashpoint.disable Crashpoint.Crc_check_disabled)
        f)
