(* Hand-rolled JSON: a value type, a pretty-printer, and a
   recursive-descent parser.  Deliberately dependency-free — the session
   artifacts are written and read back by this same module, so we control
   both ends of the wire. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_literal f =
  if not (Float.is_finite f) then "null"
  else
    (* %.17g round-trips every double; integral values render as "42"
       (and so decode as Int — to_float accepts both). *)
    Printf.sprintf "%.17g" f

let to_string ?(minify = false) t =
  let buf = Buffer.create 256 in
  let indent n = if not minify then Buffer.add_string buf ("\n" ^ String.make (2 * n) ' ') in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_literal f)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            go (depth + 1) x)
          xs;
        indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            escape_string buf k;
            Buffer.add_char buf ':';
            if not minify then Buffer.add_char buf ' ';
            go (depth + 1) v)
          fields;
        indent depth;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Parse_error of int * string

let parse_error pos fmt = Printf.ksprintf (fun m -> raise (Parse_error (pos, m))) fmt

(* Append one Unicode code point as UTF-8. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  (* The hot loops (whitespace, plain string bodies, number literals)
     read bytes with [String.unsafe_get] behind their own bounds check,
     so they allocate nothing per byte; [peek] allocates a [Some]. *)
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> parse_error !pos "expected %c, found %c" c c'
    | None -> parse_error !pos "expected %c, found end of input" c
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else parse_error !pos "invalid literal"
  in
  let hex4 () =
    if !pos + 4 > n then parse_error !pos "truncated \\u escape";
    let digit i =
      match s.[!pos + i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> parse_error (!pos + i) "invalid hex digit %C in \\u escape" c
    in
    let v = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
    pos := !pos + 4;
    v
  in
  (* The end of a run of bytes a string holds verbatim.  RFC 8259 forbids
     raw control bytes inside strings, so they end the run too. *)
  let rec plain i =
    if i < n then
      match String.unsafe_get s i with '"' | '\\' | '\000' .. '\031' -> i | _ -> plain (i + 1)
    else i
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain start in
    pos := stop;
    if stop < n && String.unsafe_get s stop = '"' then begin
      (* No escape before the closing quote: the string is one slice. *)
      advance ();
      String.sub s start (stop - start)
    end
    else begin
      (* An escape, or the end of the input: decode the rest piecewise. *)
      let buf = Buffer.create (stop - start + 16) in
      Buffer.add_substring buf s start (stop - start);
      let rec go () =
        match peek () with
        | None -> parse_error !pos "unterminated string"
        | Some '"' ->
            advance ();
            Buffer.contents buf
        | Some '\\' ->
            advance ();
            (match peek () with
            | Some '"' -> Buffer.add_char buf '"'; advance ()
            | Some '\\' -> Buffer.add_char buf '\\'; advance ()
            | Some '/' -> Buffer.add_char buf '/'; advance ()
            | Some 'n' -> Buffer.add_char buf '\n'; advance ()
            | Some 't' -> Buffer.add_char buf '\t'; advance ()
            | Some 'r' -> Buffer.add_char buf '\r'; advance ()
            | Some 'b' -> Buffer.add_char buf '\b'; advance ()
            | Some 'f' -> Buffer.add_char buf '\012'; advance ()
            | Some 'u' ->
                advance ();
                let cp = hex4 () in
                let cp =
                  (* Combine a UTF-16 surrogate pair only when a low
                     surrogate follows; otherwise the next escape is left
                     for the loop to decode on its own. *)
                  if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n && s.[!pos] = '\\'
                     && s.[!pos + 1] = 'u'
                  then begin
                    let hi_end = !pos in
                    pos := !pos + 2;
                    let lo = hex4 () in
                    if lo >= 0xDC00 && lo <= 0xDFFF then
                      0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                    else begin
                      pos := hi_end;
                      cp
                    end
                  end
                  else cp
                in
                add_utf8 buf cp
            | Some c -> parse_error !pos "invalid escape \\%c" c
            | None -> parse_error !pos "truncated escape");
            go ()
        | Some ('\000' .. '\031' as c) -> parse_error !pos "unescaped control character %C in string" c
        | Some _ ->
            let stop = plain !pos in
            Buffer.add_substring buf s !pos (stop - !pos);
            pos := stop;
            go ()
      in
      go ()
    end
  in
  (* RFC 8259 numbers: an optional minus, an integer part that is 0 or
     has no leading zero, then an optional fraction and exponent, each
     with at least one digit. *)
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let at c = !pos < n && String.unsafe_get s !pos = c in
    let is_digit () = !pos < n && match String.unsafe_get s !pos with '0' .. '9' -> true | _ -> false in
    let digits () =
      if not (is_digit ()) then parse_error !pos "invalid number: expected a digit";
      while is_digit () do
        advance ()
      done
    in
    if at '-' then advance ();
    if at '0' then begin
      advance ();
      if is_digit () then parse_error !pos "invalid number: leading zero"
    end
    else digits ();
    if at '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    if at 'e' || at 'E' then begin
      is_float := true;
      advance ();
      if at '+' || at '-' then advance ();
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    if !is_float then begin
      (* Integral values are normalised to Int ("2.0" and "2" decode
         identically), mirroring the encoder, which renders integral
         floats without a fractional part.  The round-trip guard keeps
         out-of-int-range doubles (e.g. 1e300) as floats. *)
      let f = float_of_string lit in
      let i = int_of_float f in
      if Float.is_integer f && float_of_int i = f then Int i else Float f
    end
    else
      (* An integer literal overflowing native int stays a float. *)
      match int_of_string_opt lit with Some i -> Int i | None -> Float (float_of_string lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> parse_error !pos "expected ',' or ']'"
          in
          List (elems [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                List.rev (kv :: acc)
            | _ -> parse_error !pos "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_error !pos "unexpected character %c" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then parse_error !pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, m) -> Error (Printf.sprintf "JSON parse error at offset %d: %s" p m)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

(* A float converts only when integral and inside [min_int, max_int]:
   int_of_float is unspecified outside that range (1e300 would give 0). *)
let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && f >= Float.of_int min_int && f < -.Float.of_int min_int ->
      Some (int_of_float f)
  | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
