"""Print numpy's ziggurat tables as the constant seirs_delay._stream keeps.

    python tools/ziggurat_tables.py [--check]

numpy draws `Generator.normal` by a 256-layer ziggurat (Marsaglia & Tsang
2000) whose tables `wi_double`, `ki_double` and `fi_double` are local
symbols of `src_distributions_distributions.c.o` in
`numpy/random/lib/libnpyrandom.a`, the static library numpy installs for
Cython users. This script reads them from the installed numpy with the
standard library alone: the members of the `ar` archive (with GNU long
names), the object's ELF64 section headers and symbol table, and each
symbol's bytes in its section. It prints `_ZIGGURAT`, the three tables in
that order as the hex of their little-endian 8-byte entries, four entries
a line. With --check it prints nothing and compares that with
`seirs_delay._stream._ZIGGURAT`: the exit code is 0 when they are equal, 1
when they differ, and 2 when the archive or a table is missing.
"""
import importlib.util
import pathlib
import struct
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MEMBER = "src_distributions_distributions.c.o"
TABLES = ("wi_double", "ki_double", "fi_double")
ENTRIES = 256
SHT_SYMTAB = 2


def archive() -> pathlib.Path:
    """The path of the installed numpy's libnpyrandom.a (it may not exist)."""
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        return pathlib.Path("numpy", "random", "lib", "libnpyrandom.a")
    base = pathlib.Path(spec.submodule_search_locations[0])
    return base / "random" / "lib" / "libnpyrandom.a"


def members(data: bytes):
    """(name, bytes) of each file member of the ar archive data."""
    if not data.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos, names = 8, b""
    while pos + 60 <= len(data):
        header = data[pos:pos + 60]
        name = header[:16].decode("ascii").rstrip()
        size = int(header[48:58])
        body = data[pos + 60:pos + 60 + size]
        # members start at even offsets
        pos += 60 + size + (size & 1)
        if name == "//":
            names = body
        elif name.startswith("/") and name[1:].isdigit():
            start = int(name[1:])
            yield names[start:names.index(b"/\n", start)].decode("ascii"), body
        elif name not in ("/", "/SYM64/"):
            yield name.rstrip("/"), body


def symbols(obj: bytes) -> dict[str, bytes]:
    """The bytes of every sized symbol of the ELF64 relocatable object obj
    that lives in a section, by name, as little-endian 8-byte words."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2:
        raise ValueError("not an ELF64 object")
    order = "<" if obj[5] == 1 else ">"
    shoff, = struct.unpack_from(order + "Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from(order + "HH", obj, 0x3A)
    # sh_name, sh_type, sh_flags, sh_addr, sh_offset, sh_size, sh_link, ...
    sections = [struct.unpack_from(order + "IIQQQQIIQQ", obj,
                                   shoff + k * shentsize)
                for k in range(shnum)]
    out = {}
    for _, kind, _, _, offset, size, link, _, _, entsize in sections:
        if kind != SHT_SYMTAB:
            continue
        strtab = sections[link][4]
        for at in range(offset, offset + size, entsize):
            # st_name, st_info, st_other, st_shndx, st_value, st_size
            name_at, _, _, shndx, value, length = struct.unpack_from(
                order + "IBBHQQ", obj, at)
            if not (0 < shndx < len(sections)) or length % 8:
                continue
            name = obj[strtab + name_at:obj.index(b"\0", strtab + name_at)]
            # in a relocatable object a symbol's value is its offset in
            # its section
            start = sections[shndx][4] + value
            words = struct.unpack_from(f"{order}{length // 8}Q", obj, start)
            out[name.decode("ascii")] = struct.pack(f"<{len(words)}Q",
                                                     *words)
    return out


def tables(path: pathlib.Path) -> bytes:
    """wi_double, ki_double and fi_double from the archive at path."""
    found = dict(members(path.read_bytes()))
    if MEMBER not in found:
        raise LookupError(f"{path} has no member {MEMBER}")
    syms = symbols(found[MEMBER])
    missing = [t for t in TABLES if len(syms.get(t, b"")) != 8 * ENTRIES]
    if missing:
        raise LookupError(f"{MEMBER} has no {ENTRIES}-entry "
                          f"{', '.join(missing)}")
    return b"".join(syms[t] for t in TABLES)


def constant(raw: bytes) -> str:
    """The source of _ZIGGURAT for the table bytes raw."""
    lines = ["_ZIGGURAT = ("]
    for k, name in enumerate(TABLES):
        lines.append(f"    # {name}")
        table = raw[8 * ENTRIES * k:8 * ENTRIES * (k + 1)]
        lines += [f'    "{table[j:j + 32].hex()}"' for j in range(0, len(table), 32)]
    return "\n".join(lines + [")"]) + "\n"


def main(argv) -> int:
    if argv not in ([], ["--check"]):
        print("usage: python tools/ziggurat_tables.py [--check]",
              file=sys.stderr)
        return 2
    path = archive()
    try:
        raw = tables(path)
    except (OSError, LookupError) as exc:
        print(f"ziggurat_tables: {exc}", file=sys.stderr)
        return 2
    if not argv:
        sys.stdout.write(constant(raw))
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    from seirs_delay import _stream

    if bytes.fromhex(_stream._ZIGGURAT) != raw:
        print(f"ziggurat_tables: seirs_delay._stream._ZIGGURAT differs from "
              f"the tables of {path}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
