// formatting positive fixture: whitespace the formatter rejects.
int tabbed() {
	return 1;
}
int trailing() { return 2; }  
int crlf() { return 3; }
int last() { return 4; }