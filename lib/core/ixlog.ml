open Aries_util
module Key = Aries_page.Key

let rm_id = 1

type body =
  | Insert_key of { ix : Ids.index_id; key : Key.t; reset_sm : bool; reset_delete : bool }
  | Delete_key of {
      ix : Ids.index_id;
      key : Key.t;
      reset_sm : bool;
      set_sm : bool;
      mark_delete_bit : bool;
    }
  | Format_leaf of { keys : Key.t list; prev : Ids.page_id; next : Ids.page_id; sm_bit : bool }
  | Leaf_truncate of { removed : Key.t list; old_next : Ids.page_id; new_next : Ids.page_id }
  | Leaf_restore of {
      add_keys : Key.t list;
      set_prev : Ids.page_id option;
      set_next : Ids.page_id option;
    }
  | Leaf_relink of {
      old_prev : Ids.page_id;
      new_prev : Ids.page_id;
      old_next : Ids.page_id;
      new_next : Ids.page_id;
    }
  | Leaf_unlink of { old_prev : Ids.page_id; old_next : Ids.page_id }
  | Format_nonleaf of {
      level : int;
      children : Ids.page_id list;
      high_keys : Key.t list;
      sm_bit : bool;
    }
  | Nl_insert_child of { child_idx : int; sep_idx : int; sep : Key.t; child : Ids.page_id }
  | Nl_remove_child of {
      child_idx : int;
      child : Ids.page_id;
      sep_idx : int;
      sep : Key.t option;
      level : int;
    }
  | Nl_truncate of {
      keep_children : int;
      removed_children : Ids.page_id list;
      removed_high_keys : Key.t list;
    }
  | Nl_restore of { add_children : Ids.page_id list; add_high_keys : Key.t list }
  | Anchor_set of {
      old_root : Ids.page_id;
      new_root : Ids.page_id;
      old_height : int;
      new_height : int;
    }
  | Format_anchor of { name : string; unique : bool; root : Ids.page_id; height : int }
  | Reset_bits of { sm : bool; delete : bool }

let op_of_body = function
  | Insert_key _ -> 1
  | Delete_key _ -> 2
  | Format_leaf _ -> 3
  | Leaf_truncate _ -> 4
  | Leaf_restore _ -> 5
  | Leaf_relink _ -> 6
  | Leaf_unlink _ -> 7
  | Format_nonleaf _ -> 8
  | Nl_insert_child _ -> 9
  | Nl_remove_child _ -> 10
  | Anchor_set _ -> 11
  | Format_anchor _ -> 12
  | Reset_bits _ -> 13
  | Nl_truncate _ -> 14
  | Nl_restore _ -> 15

let op_name = function
  | 1 -> "insert_key"
  | 2 -> "delete_key"
  | 3 -> "format_leaf"
  | 4 -> "leaf_truncate"
  | 5 -> "leaf_restore"
  | 6 -> "leaf_relink"
  | 7 -> "leaf_unlink"
  | 8 -> "format_nonleaf"
  | 9 -> "nl_insert_child"
  | 10 -> "nl_remove_child"
  | 11 -> "anchor_set"
  | 12 -> "format_anchor"
  | 13 -> "reset_bits"
  | 14 -> "nl_truncate"
  | 15 -> "nl_restore"
  | n -> Printf.sprintf "op-%d" n

(* Body layout: every integer (index id, page id, slot, count, index,
   level, height, length) is an unsigned LEB128 varint, and a body's
   booleans (and which options are present) are packed into one flags
   byte, which comes first. A key is written by this codec, not the page
   codec's [Key.encode]: a varint value length and the value's bytes, a
   varint rid page and a varint rid slot. A key or page-id list is a
   varint count and its elements.

   The emitter below is the one description of these bytes: applied to
   [Bytebuf.Count] it gives a body's exact size, applied to [Bytebuf.W]
   it writes it, so [enc] cannot write other than it sizes. [decode] is
   its mirror, checked by the codec properties of test_ixlog. *)
let bit i b = if b then 1 lsl i else 0

let has i f = f land (1 lsl i) <> 0

module Emit (S : Bytebuf.SINK) = struct
  let key s (k : Key.t) =
    S.uvar_string s k.Key.value;
    S.uvar s k.Key.rid.Ids.rid_page;
    S.uvar s k.Key.rid.Ids.rid_slot

  let keys s ks = S.uvar_list s key ks

  let pids s ps = S.uvar_list s S.uvar ps

  let pid_opt s = function Some p -> S.uvar s p | None -> ()

  let body s = function
    | Insert_key { ix; key = k; reset_sm; reset_delete } ->
        S.u8 s (bit 0 reset_sm lor bit 1 reset_delete);
        S.uvar s ix;
        key s k
    | Delete_key { ix; key = k; reset_sm; set_sm; mark_delete_bit } ->
        S.u8 s (bit 0 reset_sm lor bit 1 set_sm lor bit 2 mark_delete_bit);
        S.uvar s ix;
        key s k
    | Format_leaf { keys = ks; prev; next; sm_bit } ->
        S.u8 s (bit 0 sm_bit);
        keys s ks;
        S.uvar s prev;
        S.uvar s next
    | Leaf_truncate { removed; old_next; new_next } ->
        keys s removed;
        S.uvar s old_next;
        S.uvar s new_next
    | Leaf_restore { add_keys; set_prev; set_next } ->
        S.u8 s (bit 0 (Option.is_some set_prev) lor bit 1 (Option.is_some set_next));
        keys s add_keys;
        pid_opt s set_prev;
        pid_opt s set_next
    | Leaf_relink { old_prev; new_prev; old_next; new_next } ->
        S.uvar s old_prev;
        S.uvar s new_prev;
        S.uvar s old_next;
        S.uvar s new_next
    | Leaf_unlink { old_prev; old_next } ->
        S.uvar s old_prev;
        S.uvar s old_next
    | Format_nonleaf { level; children; high_keys; sm_bit } ->
        S.u8 s (bit 0 sm_bit);
        S.uvar s level;
        pids s children;
        keys s high_keys
    | Nl_insert_child { child_idx; sep_idx; sep; child } ->
        S.uvar s child_idx;
        S.uvar s sep_idx;
        key s sep;
        S.uvar s child
    | Nl_remove_child { child_idx; child; sep_idx; sep; level } ->
        S.u8 s (bit 0 (Option.is_some sep));
        S.uvar s child_idx;
        S.uvar s child;
        S.uvar s sep_idx;
        S.uvar s level;
        Option.iter (key s) sep
    | Anchor_set { old_root; new_root; old_height; new_height } ->
        S.uvar s old_root;
        S.uvar s new_root;
        S.uvar s old_height;
        S.uvar s new_height
    | Format_anchor { name; unique; root; height } ->
        S.u8 s (bit 0 unique);
        S.uvar_string s name;
        S.uvar s root;
        S.uvar s height
    | Reset_bits { sm; delete } -> S.u8 s (bit 0 sm lor bit 1 delete)
    | Nl_truncate { keep_children; removed_children; removed_high_keys } ->
        S.uvar s keep_children;
        pids s removed_children;
        keys s removed_high_keys
    | Nl_restore { add_children; add_high_keys } ->
        pids s add_children;
        keys s add_high_keys
end

module Count_body = Emit (Bytebuf.Count)
module Write_body = Emit (Bytebuf.W)

let enc = Bytebuf.enc Count_body.body Write_body.body

let encode body = Bytebuf.encode enc body

let read_key r =
  let value = Bytebuf.R.uvar_string r in
  let rid_page = Bytebuf.R.uvar r in
  let rid_slot = Bytebuf.R.uvar r in
  Key.make value { Ids.rid_page; rid_slot }

let read_keys r = Bytebuf.R.uvar_list r read_key

let read_pids r = Bytebuf.R.uvar_list r Bytebuf.R.uvar

let read_pid_if present r = if present then Some (Bytebuf.R.uvar r) else None

let decode_from ~op r =
  let module R = Bytebuf.R in
  match op with
  | 1 ->
      let f = R.flags r ~bits:2 in
      let ix = R.uvar r in
      let key = read_key r in
      Insert_key { ix; key; reset_sm = has 0 f; reset_delete = has 1 f }
  | 2 ->
      let f = R.flags r ~bits:3 in
      let ix = R.uvar r in
      let key = read_key r in
      Delete_key { ix; key; reset_sm = has 0 f; set_sm = has 1 f; mark_delete_bit = has 2 f }
  | 3 ->
      let f = R.flags r ~bits:1 in
      let keys = read_keys r in
      let prev = R.uvar r in
      let next = R.uvar r in
      Format_leaf { keys; prev; next; sm_bit = has 0 f }
  | 4 ->
      let removed = read_keys r in
      let old_next = R.uvar r in
      let new_next = R.uvar r in
      Leaf_truncate { removed; old_next; new_next }
  | 5 ->
      let f = R.flags r ~bits:2 in
      let add_keys = read_keys r in
      let set_prev = read_pid_if (has 0 f) r in
      let set_next = read_pid_if (has 1 f) r in
      Leaf_restore { add_keys; set_prev; set_next }
  | 6 ->
      let old_prev = R.uvar r in
      let new_prev = R.uvar r in
      let old_next = R.uvar r in
      let new_next = R.uvar r in
      Leaf_relink { old_prev; new_prev; old_next; new_next }
  | 7 ->
      let old_prev = R.uvar r in
      let old_next = R.uvar r in
      Leaf_unlink { old_prev; old_next }
  | 8 ->
      let f = R.flags r ~bits:1 in
      let level = R.uvar r in
      let children = read_pids r in
      let high_keys = read_keys r in
      Format_nonleaf { level; children; high_keys; sm_bit = has 0 f }
  | 9 ->
      let child_idx = R.uvar r in
      let sep_idx = R.uvar r in
      let sep = read_key r in
      let child = R.uvar r in
      Nl_insert_child { child_idx; sep_idx; sep; child }
  | 10 ->
      let f = R.flags r ~bits:1 in
      let child_idx = R.uvar r in
      let child = R.uvar r in
      let sep_idx = R.uvar r in
      let level = R.uvar r in
      let sep = if has 0 f then Some (read_key r) else None in
      Nl_remove_child { child_idx; child; sep_idx; sep; level }
  | 11 ->
      let old_root = R.uvar r in
      let new_root = R.uvar r in
      let old_height = R.uvar r in
      let new_height = R.uvar r in
      Anchor_set { old_root; new_root; old_height; new_height }
  | 12 ->
      let f = R.flags r ~bits:1 in
      let name = R.uvar_string r in
      let root = R.uvar r in
      let height = R.uvar r in
      Format_anchor { name; unique = has 0 f; root; height }
  | 13 ->
      let f = R.flags r ~bits:2 in
      Reset_bits { sm = has 0 f; delete = has 1 f }
  | 14 ->
      let keep_children = R.uvar r in
      let removed_children = read_pids r in
      let removed_high_keys = read_keys r in
      Nl_truncate { keep_children; removed_children; removed_high_keys }
  | 15 ->
      let add_children = read_pids r in
      let add_high_keys = read_keys r in
      Nl_restore { add_children; add_high_keys }
  | n -> raise (Bytebuf.Corrupt (Printf.sprintf "bad index op %d" n))

let decode ~op bytes =
  let r = Bytebuf.R.of_bytes bytes in
  let body = decode_from ~op r in
  Bytebuf.R.expect_end r;
  body

let pp ppf body =
  match body with
  | Insert_key { key; reset_sm; reset_delete; _ } ->
      Format.fprintf ppf "insert_key %a%s%s" Key.pp key
        (if reset_sm then " reset_sm" else "")
        (if reset_delete then " reset_del" else "")
  | Delete_key { key; mark_delete_bit; _ } ->
      Format.fprintf ppf "delete_key %a%s" Key.pp key (if mark_delete_bit then " mark_del" else "")
  | Format_leaf { keys; prev; next; _ } ->
      Format.fprintf ppf "format_leaf %d keys prev=%d next=%d" (List.length keys) prev next
  | Leaf_truncate { removed; new_next; _ } ->
      Format.fprintf ppf "leaf_truncate -%d keys next=%d" (List.length removed) new_next
  | Leaf_restore { add_keys; _ } -> Format.fprintf ppf "leaf_restore +%d keys" (List.length add_keys)
  | Leaf_relink { new_prev; new_next; _ } ->
      Format.fprintf ppf "leaf_relink prev=%d next=%d" new_prev new_next
  | Leaf_unlink _ -> Format.fprintf ppf "leaf_unlink"
  | Format_nonleaf { level; children; _ } ->
      Format.fprintf ppf "format_nonleaf level=%d fanout=%d" level (List.length children)
  | Nl_insert_child { sep; child; _ } -> Format.fprintf ppf "nl_insert_child %a -> %d" Key.pp sep child
  | Nl_remove_child { child; _ } -> Format.fprintf ppf "nl_remove_child %d" child
  | Anchor_set { new_root; new_height; _ } ->
      Format.fprintf ppf "anchor_set root=%d height=%d" new_root new_height
  | Format_anchor { name; _ } -> Format.fprintf ppf "format_anchor %s" name
  | Reset_bits { sm; delete } -> Format.fprintf ppf "reset_bits sm=%b del=%b" sm delete
  | Nl_truncate { keep_children; removed_children; _ } ->
      Format.fprintf ppf "nl_truncate keep=%d -%d children" keep_children
        (List.length removed_children)
  | Nl_restore { add_children; _ } ->
      Format.fprintf ppf "nl_restore +%d children" (List.length add_children)
