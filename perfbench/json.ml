(* A minimal JSON reader for the daemon's response lines and trace
   records: enough of RFC 8259 for what the serving protocol prints. *)

type t = Null | Bool of bool | Num of float | Str of string | List of t list | Obj of (string * t) list

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r') then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if peek () = c then incr pos else raise (Bad (Printf.sprintf "expected %c at %d" c !pos)) in
  let literal w v =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w then begin
      pos := !pos + String.length w;
      v
    end
    else raise (Bad ("bad literal at " ^ string_of_int !pos))
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              Buffer.add_utf_8_uchar b (Uchar.of_int code);
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
      | '\000' -> raise (Bad "unterminated string")
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | _ -> expect '}'; Obj (List.rev ((k, v) :: acc))
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; List [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | _ -> expect ']'; List (List.rev (v :: acc))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr pos
        done;
        if !pos = start then raise (Bad ("unexpected character at " ^ string_of_int start));
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = value () in
  ws ();
  if !pos <> n then raise (Bad "trailing characters");
  v

let field k = function
  | Obj kv -> ( match List.assoc_opt k kv with Some v -> v | None -> raise (Bad ("no field " ^ k)))
  | _ -> raise (Bad ("not an object looking for " ^ k))

let num = function Num f -> f | _ -> raise (Bad "not a number")
let str = function Str s -> s | _ -> raise (Bad "not a string")
let bool = function Bool b -> b | _ -> raise (Bad "not a boolean")
let list = function List l -> l | _ -> raise (Bad "not a list")
