"""Generated functions: build source text, compile it once, keep it debuggable."""

import linecache

_CODE = {}


def compile_function(source, label, namespace, entry):
    """The function *entry* that *source* defines, with *namespace* (copied)
    as its globals.  The text is compiled once however many functions are
    made from it, and registered in :mod:`linecache` under a name derived
    from it, so a traceback shows the failing line and
    ``inspect.getsource`` works.
    """
    code = _CODE.get((label, source))
    if code is None:
        filename = "<{} {:x}>".format(label, hash(source))
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        code = _CODE[label, source] = compile(source, filename, "exec")
    scope = dict(namespace)
    exec(code, scope)
    return scope[entry]
