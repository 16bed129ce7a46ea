"""MiniC prelude: the tiny libc the workloads link against.

String and memory helpers are *library functions written in MiniC*, not
executor intrinsics.  That way, symbolic execution forks inside them through
ordinary branches (``strlen`` over a symbolic buffer forks once per candidate
terminator position) exactly as Klee forks inside uclibc.

``compile_source`` appends only the prelude functions a program references
(plus their transitive dependencies), unless the program defines its own
version of a function, which then takes precedence.
"""

from __future__ import annotations

import re

PRELUDE_FUNCTIONS: dict[str, str] = {
    "strlen": """
int strlen(int *s) {
    int n = 0;
    while (s[n] != 0) {
        n = n + 1;
    }
    return n;
}
""",
    "strcpy": """
int *strcpy(int *dst, int *src) {
    int i = 0;
    while (src[i] != 0) {
        dst[i] = src[i];
        i = i + 1;
    }
    dst[i] = 0;
    return dst;
}
""",
    "strcat": """
int *strcat(int *dst, int *src) {
    int n = strlen(dst);
    int i = 0;
    while (src[i] != 0) {
        dst[n + i] = src[i];
        i = i + 1;
    }
    dst[n + i] = 0;
    return dst;
}
""",
    "strcmp": """
int strcmp(int *a, int *b) {
    int i = 0;
    while (a[i] != 0 && a[i] == b[i]) {
        i = i + 1;
    }
    return a[i] - b[i];
}
""",
    "strncmp": """
int strncmp(int *a, int *b, int n) {
    int i = 0;
    while (i < n) {
        if (a[i] != b[i]) {
            return a[i] - b[i];
        }
        if (a[i] == 0) {
            return 0;
        }
        i = i + 1;
    }
    return 0;
}
""",
    "strchr_at": """
int strchr_at(int *s, int c) {
    int i = 0;
    while (s[i] != 0) {
        if (s[i] == c) {
            return i;
        }
        i = i + 1;
    }
    return 0 - 1;
}
""",
    "memset": """
int *memset(int *dst, int value, int n) {
    int i = 0;
    while (i < n) {
        dst[i] = value;
        i = i + 1;
    }
    return dst;
}
""",
    "memcpy": """
int *memcpy(int *dst, int *src, int n) {
    int i = 0;
    while (i < n) {
        dst[i] = src[i];
        i = i + 1;
    }
    return dst;
}
""",
    "atoi": """
int atoi(int *s) {
    int i = 0;
    int neg = 0;
    int n = 0;
    if (s[0] == '-') {
        neg = 1;
        i = 1;
    }
    while (s[i] >= '0' && s[i] <= '9') {
        n = n * 10 + (s[i] - '0');
        i = i + 1;
    }
    if (neg) {
        return 0 - n;
    }
    return n;
}
""",
}

# Prelude functions may call each other; include callees transitively.
_DEPENDENCIES: dict[str, list[str]] = {
    "strcat": ["strlen"],
}

# A call of any prelude function, found in one pass over the source.
_CALLED = re.compile(r"\b(" + "|".join(PRELUDE_FUNCTIONS) + r")\s*\(")


def needed_prelude(user_source: str) -> str:
    """Prelude text for every prelude function the user program references
    (by word-boundary match) and does not define itself."""
    defined = set(
        re.findall(r"\b(?:int|void|char)\s*\**\s*(\w+)\s*\(", user_source)
    )
    wanted: list[str] = []

    def want(name: str) -> None:
        if name in wanted or name in defined:
            return
        wanted.append(name)
        for dep in _DEPENDENCIES.get(name, []):
            want(dep)

    called = set(_CALLED.findall(user_source))
    for name in PRELUDE_FUNCTIONS:
        if name in called:
            want(name)

    if not wanted:
        return ""
    parts = ["// --- prelude ---"]
    for name in wanted:
        parts.append(PRELUDE_FUNCTIONS[name].strip())
    return "\n".join(parts) + "\n"
